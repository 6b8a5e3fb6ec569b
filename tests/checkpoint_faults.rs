//! Checkpoint save-path robustness: injected I/O faults at every stage
//! of the atomic save sequence, retry-with-backoff on transient faults,
//! the never-clobber guarantee for the previous valid checkpoint, and
//! the campaign engine's graceful degradation to checkpoint-less mode
//! when the disk never comes back.

use issa::core::campaign::{run_campaign, CampaignCorner, CampaignOptions};
use issa::core::checkpoint::{
    Checkpoint, CheckpointError, CornerCheckpoint, IoFault, IoFaultKind, IoFaultPlan, SavePolicy,
};
use issa::core::montecarlo::{run_mc, McConfig, McResume};
use issa::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "issa-ckptfault-{}-{tag}-{n}.ckpt",
        std::process::id()
    ))
}

fn checkpoint(tag: u64) -> Checkpoint {
    Checkpoint {
        corners: vec![CornerCheckpoint {
            name: format!("corner-{tag}"),
            fingerprint: tag,
            resume: McResume {
                offsets: vec![(0, 1.25e-3), (1, -0.5e-3)],
                delays: vec![(0, 15e-12)],
                log_weights: vec![],
                failures: vec![],
            },
        }],
    }
}

/// Retry policy with no real sleeping, so fault tests stay fast.
fn quick(attempts: u32, faults: Option<IoFaultPlan>) -> SavePolicy {
    SavePolicy {
        attempts,
        backoff: Duration::ZERO,
        faults,
    }
}

#[test]
fn transient_fault_is_retried_and_the_save_lands() {
    for kind in [
        IoFaultKind::WriteError,
        IoFaultKind::ShortWrite,
        IoFaultKind::FsyncError,
        IoFaultKind::RenameError,
    ] {
        let path = temp_path("transient");
        let plan = IoFaultPlan::transient(&[(0, kind)]);
        checkpoint(7)
            .save_with(&path, &quick(3, Some(plan.clone())))
            .unwrap_or_else(|e| panic!("{kind} transient fault must be retried away: {e}"));
        assert_eq!(
            plan.attempts(),
            2,
            "{kind}: first attempt faulted, second landed"
        );
        assert_eq!(Checkpoint::load(&path).unwrap(), checkpoint(7));
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn back_to_back_transient_faults_still_fit_the_retry_budget() {
    let path = temp_path("backtoback");
    let plan =
        IoFaultPlan::transient(&[(0, IoFaultKind::WriteError), (1, IoFaultKind::FsyncError)]);
    checkpoint(3)
        .save_with(&path, &quick(3, Some(plan.clone())))
        .expect("two transient faults inside a three-attempt budget");
    assert_eq!(plan.attempts(), 3);
    assert_eq!(Checkpoint::load(&path).unwrap(), checkpoint(3));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn persistent_fault_exhausts_the_budget_and_names_the_stage() {
    for kind in [
        IoFaultKind::WriteError,
        IoFaultKind::ShortWrite,
        IoFaultKind::FsyncError,
        IoFaultKind::RenameError,
    ] {
        let path = temp_path("persistent");
        let plan = IoFaultPlan::persistent_from(0, kind);
        let err = checkpoint(1)
            .save_with(&path, &quick(3, Some(plan.clone())))
            .expect_err("a persistent fault must defeat every retry");
        assert_eq!(plan.attempts(), 3, "{kind}: all three attempts consumed");
        match &err {
            CheckpointError::Io(msg) => assert!(
                msg.contains(&format!("injected checkpoint {kind} fault")),
                "{kind}: the error must name the failing stage, got {msg:?}"
            ),
            other => panic!("{kind}: expected an Io error, got {other:?}"),
        }
        assert!(
            !path.exists(),
            "{kind}: a failed save must not publish a file"
        );
        assert!(
            !path.with_extension("ckpt.tmp").exists(),
            "{kind}: the torn temp file must be cleaned up"
        );
    }
}

#[test]
fn failed_saves_never_clobber_the_previous_valid_checkpoint() {
    // A valid generation-1 checkpoint on disk, then every fault kind in
    // turn breaks the generation-2 save: the file on disk must still
    // load as generation 1, bit for bit, and no temp debris may remain.
    let path = temp_path("noclobber");
    checkpoint(1).save(&path).unwrap();
    for kind in [
        IoFaultKind::WriteError,
        IoFaultKind::ShortWrite,
        IoFaultKind::FsyncError,
        IoFaultKind::RenameError,
    ] {
        let plan = IoFaultPlan::persistent_from(0, kind);
        checkpoint(2)
            .save_with(&path, &quick(3, Some(plan)))
            .expect_err("persistent fault");
        assert_eq!(
            Checkpoint::load(&path).unwrap(),
            checkpoint(1),
            "{kind}: the previous checkpoint must survive a failed save untouched"
        );
        assert!(
            !path.with_extension("ckpt.tmp").exists(),
            "{kind}: temp cleaned"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn transient_directory_sync_fault_is_retried_away() {
    let path = temp_path("dirsync-transient");
    let plan = IoFaultPlan::transient(&[(0, IoFaultKind::DirSync)]);
    checkpoint(5)
        .save_with(&path, &quick(3, Some(plan.clone())))
        .expect("a transient directory-sync fault must be retried away");
    assert_eq!(plan.attempts(), 2, "first attempt faulted, second landed");
    assert_eq!(Checkpoint::load(&path).unwrap(), checkpoint(5));
    assert!(!path.with_extension("ckpt.tmp").exists());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn persistent_directory_sync_fault_errors_but_never_tears_the_target() {
    // The directory sync runs after the rename: the new file is already
    // complete at the target, only its name is not yet durable. A disk
    // that never syncs its directory must surface an error, and the
    // target must still hold a complete checkpoint with no temp debris.
    let path = temp_path("dirsync-persistent");
    checkpoint(1).save(&path).unwrap();
    let plan = IoFaultPlan::persistent_from(0, IoFaultKind::DirSync);
    let err = checkpoint(2)
        .save_with(&path, &quick(3, Some(plan.clone())))
        .expect_err("a persistent directory-sync fault must defeat every retry");
    assert_eq!(plan.attempts(), 3);
    match &err {
        CheckpointError::Io(msg) => assert!(
            msg.contains("injected checkpoint dir-sync fault"),
            "the error must name the failing stage, got {msg:?}"
        ),
        other => panic!("expected an Io error, got {other:?}"),
    }
    let on_disk = Checkpoint::load(&path).expect("the target is never torn");
    assert!(
        on_disk == checkpoint(1) || on_disk == checkpoint(2),
        "the target holds one complete generation, got {on_disk:?}"
    );
    assert!(!path.with_extension("ckpt.tmp").exists(), "temp cleaned");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn unwritable_target_directory_fails_loudly_without_a_panic() {
    // A path whose "directory" is a regular file can never be created;
    // the save must surface an Io error through the retry machinery.
    let blocker = temp_path("blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let path = blocker.join("nested.ckpt");
    let err = checkpoint(1)
        .save_with(&path, &quick(2, None))
        .expect_err("saving under a regular file cannot succeed");
    assert!(matches!(err, CheckpointError::Io(_)));
    std::fs::remove_file(&blocker).unwrap();

    // A read-only directory: meaningful only without root's CAP_DAC_OVERRIDE,
    // so tolerate either outcome but never a panic or a torn file.
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        let dir = std::env::temp_dir().join(format!("issa-ckptfault-ro-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o555)).unwrap();
        let target = dir.join("ro.ckpt");
        match checkpoint(1).save_with(&target, &quick(2, None)) {
            Ok(()) => assert_eq!(Checkpoint::load(&target).unwrap(), checkpoint(1)),
            Err(CheckpointError::Io(_)) => assert!(!target.exists()),
            Err(other) => panic!("unexpected error class: {other:?}"),
        }
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o755)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn single_attempt_policy_fails_on_the_first_transient_fault() {
    let path = temp_path("single");
    let plan = IoFaultPlan::transient(&[(0, IoFaultKind::WriteError)]);
    checkpoint(1)
        .save_with(&path, &quick(1, Some(plan.clone())))
        .expect_err("no retries means the transient fault is fatal");
    assert_eq!(plan.attempts(), 1);
    assert!(!path.exists());
}

#[test]
fn fault_plans_fire_by_global_attempt_sequence_across_saves() {
    // One shared plan across two sinks/saves: the transient fault at
    // attempt 2 hits the *second* save's first try, nothing else.
    let plan = IoFaultPlan::new(vec![IoFault {
        at: 2,
        kind: IoFaultKind::RenameError,
        persistent: false,
    }]);
    let (a, b) = (temp_path("seq-a"), temp_path("seq-b"));
    checkpoint(1)
        .save_with(&a, &quick(3, Some(plan.clone())))
        .expect("attempt 0 is clean");
    assert_eq!(plan.attempts(), 1);
    checkpoint(2)
        .save_with(&b, &quick(3, Some(plan.clone())))
        .expect("attempt 1 is clean");
    assert_eq!(plan.attempts(), 2);
    checkpoint(3)
        .save_with(&a, &quick(3, Some(plan.clone())))
        .expect("attempt 2 faults, attempt 3 retries it away");
    assert_eq!(plan.attempts(), 4);
    std::fs::remove_file(&a).unwrap();
    std::fs::remove_file(&b).unwrap();
}

fn smoke_cfg() -> McConfig {
    McConfig::smoke(
        SaKind::Nssa,
        Workload::new(0.8, ReadSequence::AllZeros),
        Environment::nominal(),
        1e8,
        4,
    )
}

#[test]
fn campaign_degrades_to_checkpointless_mode_and_still_completes_bit_identically() {
    let corners = [CampaignCorner {
        name: "corner".into(),
        cfg: smoke_cfg(),
    }];
    let reference = run_mc(&corners[0].cfg).unwrap();

    let path = temp_path("degrade");
    let report = run_campaign(
        &corners,
        &CampaignOptions {
            checkpoint: Some(path.clone()),
            flush_every: 1,
            save_policy: quick(
                2,
                Some(IoFaultPlan::persistent_from(0, IoFaultKind::FsyncError)),
            ),
            max_save_failures: 2,
            ..CampaignOptions::default()
        },
    )
    .expect("a dead disk must not abort the campaign");

    let degraded = report
        .checkpoint_degraded
        .as_deref()
        .expect("persistent flush failures must be recorded in the report");
    assert!(
        degraded.contains("checkpointing disabled") && degraded.contains("fsync"),
        "degradation reason must say what happened and why: {degraded:?}"
    );
    assert!(
        !report.partial,
        "results are complete; only durability was lost"
    );
    assert_eq!(report.result("corner").expect("completes"), &reference);
    assert!(!path.exists(), "no checkpoint was ever published");
}

#[test]
fn campaign_survives_transient_flush_faults_without_degrading() {
    let corners = [CampaignCorner {
        name: "corner".into(),
        cfg: smoke_cfg(),
    }];
    let reference = run_mc(&corners[0].cfg).unwrap();

    let path = temp_path("transient-flush");
    let plan =
        IoFaultPlan::transient(&[(0, IoFaultKind::WriteError), (4, IoFaultKind::ShortWrite)]);
    let report = run_campaign(
        &corners,
        &CampaignOptions {
            checkpoint: Some(path.clone()),
            flush_every: 1,
            save_policy: quick(3, Some(plan)),
            max_save_failures: 2,
            ..CampaignOptions::default()
        },
    )
    .unwrap();

    assert_eq!(
        report.checkpoint_degraded, None,
        "retries absorb transient faults"
    );
    assert!(!report.partial);
    assert_eq!(report.result("corner").expect("completes"), &reference);
    assert!(
        !path.exists(),
        "a completed campaign removes its checkpoint"
    );
}
