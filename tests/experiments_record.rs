//! The reproduction record quotes the committed results: every number in
//! EXPERIMENTS.md's Table II–IV and Fig. 7 blocks equals the CSV cell it
//! stands for (`results/table{2,3,4}.csv`, `results/fig7_delay_aging.csv`,
//! all written by `campaign`), rounded to the decimals it is printed
//! with. Rows match in CSV order, and the row counts must agree.

use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// A CSV file: its header names and its rows, in file order.
struct Csv {
    name: &'static str,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Csv {
    fn read(name: &'static str) -> Csv {
        let text = read(&format!("results/{name}"));
        let mut lines = text.lines();
        let split = |l: &str| l.split(',').map(str::to_owned).collect::<Vec<_>>();
        let header = split(lines.next().unwrap_or_else(|| panic!("{name} is empty")));
        let rows: Vec<Vec<String>> = lines.map(split).collect();
        for row in &rows {
            assert_eq!(row.len(), header.len(), "{name}: ragged row {row:?}");
        }
        Csv { name, header, rows }
    }

    fn cell<'a>(&self, row: &'a [String], column: &str) -> &'a str {
        let k = self
            .header
            .iter()
            .position(|h| h == column)
            .unwrap_or_else(|| panic!("{}: no column '{column}'", self.name));
        &row[k]
    }
}

/// The lines of the first fenced code block in the `## {title} …`
/// section of `doc`.
fn block<'a>(doc: &'a str, title: &str) -> Vec<&'a str> {
    let body: Vec<&str> = doc
        .lines()
        .skip_while(|l| {
            !l.strip_prefix("## ")
                .and_then(|rest| rest.strip_prefix(title))
                .is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
        })
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .skip_while(|l| !l.starts_with("```"))
        .skip(1)
        .take_while(|l| !l.starts_with("```"))
        .collect();
    assert!(
        !body.is_empty(),
        "EXPERIMENTS.md: no code block under '## {title}'"
    );
    body
}

/// `quoted` is `cell` rounded to the decimals `quoted` shows.
fn assert_quotes(quoted: &str, cell: &str, context: &str) {
    let decimals = quoted.split_once('.').map_or(0, |(_, frac)| frac.len());
    let value: f64 = cell
        .parse()
        .unwrap_or_else(|_| panic!("{context}: CSV cell '{cell}' is not a number"));
    assert_eq!(
        quoted,
        format!("{value:.decimals$}"),
        "{context}: EXPERIMENTS.md says {quoted}, the CSV holds {cell}"
    );
}

/// A table block's rows read `scheme time wkld extra | 4 paper values |
/// 4 measured values`, as `campaign` prints them.
fn check_table(doc: &str, title: &str, csv: &'static str) {
    const PAPER: [&str; 4] = [
        "mu_paper_mv",
        "sigma_paper_mv",
        "spec_paper_mv",
        "delay_paper_ps",
    ];
    const MEASURED: [&str; 4] = ["mu_mv", "sigma_mv", "spec_mv", "delay_ps"];
    let csv = Csv::read(csv);
    let rows: Vec<&str> = block(doc, title)
        .into_iter()
        .filter(|l| l.contains('|') && !l.trim_start().starts_with("scheme"))
        .collect();
    assert_eq!(
        rows.len(),
        csv.rows.len(),
        "{title}: {} rows in EXPERIMENTS.md, {} in {}",
        rows.len(),
        csv.rows.len(),
        csv.name
    );
    for (k, (line, row)) in rows.iter().zip(&csv.rows).enumerate() {
        let context = format!("{title} row {}", k + 1);
        let parts: Vec<Vec<&str>> = line
            .split('|')
            .map(|p| p.split_whitespace().collect())
            .collect();
        assert_eq!(parts.len(), 3, "{context}: expected 3 '|' sections: {line}");
        let key = [
            csv.cell(row, "scheme"),
            csv.cell(row, "time_s"),
            csv.cell(row, "workload"),
        ];
        assert_eq!(parts[0].get(..3), Some(&key[..]), "{context}: {line}");
        assert_eq!(csv.cell(row, "partial"), "0", "{context}: partial result");
        for (values, columns) in [(&parts[1], PAPER), (&parts[2], MEASURED)] {
            assert_eq!(values.len(), columns.len(), "{context}: {line}");
            for (quoted, column) in values.iter().zip(columns) {
                assert_quotes(
                    quoted,
                    csv.cell(row, column),
                    &format!("{context} {column}"),
                );
            }
        }
    }
}

#[test]
fn table2_block_quotes_table2_csv() {
    check_table(&read("EXPERIMENTS.md"), "Table II", "table2.csv");
}

#[test]
fn table3_block_quotes_table3_csv() {
    check_table(&read("EXPERIMENTS.md"), "Table III", "table3.csv");
}

#[test]
fn table4_block_quotes_table4_csv() {
    check_table(&read("EXPERIMENTS.md"), "Table IV", "table4.csv");
}

/// The Fig. 7 block's rows read `time  NSSA-80r0r1  NSSA-80r0  ISSA-80%`
/// delays in ps; the header line does not start with a number.
#[test]
fn fig7_block_quotes_fig7_csv() {
    const SERIES: [&str; 3] = [
        "nssa_80r0r1_delay_ps",
        "nssa_80r0_delay_ps",
        "issa_80_delay_ps",
    ];
    let doc = read("EXPERIMENTS.md");
    let csv = Csv::read("fig7_delay_aging.csv");
    let rows: Vec<Vec<&str>> = block(&doc, "Fig. 7")
        .into_iter()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(|t| t.first().is_some_and(|t| t.parse::<f64>().is_ok()))
        .collect();
    assert_eq!(
        rows.len(),
        csv.rows.len(),
        "Fig. 7: {} rows in EXPERIMENTS.md, {} in {}",
        rows.len(),
        csv.rows.len(),
        csv.name
    );
    for (tokens, row) in rows.iter().zip(&csv.rows) {
        let time = csv.cell(row, "time_s");
        let context = format!("Fig. 7 t={time}");
        assert_eq!(tokens.len(), 1 + SERIES.len(), "{context}: {tokens:?}");
        assert_eq!(
            tokens[0].parse::<f64>().ok(),
            time.parse::<f64>().ok(),
            "{context}: stress time"
        );
        assert_eq!(csv.cell(row, "partial"), "0", "{context}: partial result");
        for (quoted, column) in tokens[1..].iter().zip(SERIES) {
            assert_quotes(
                quoted,
                csv.cell(row, column),
                &format!("{context} {column}"),
            );
        }
    }
}
