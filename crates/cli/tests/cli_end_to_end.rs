//! End-to-end tests for the CLI command logic over real temp files —
//! the paper's Figure 1 scenario, driven exactly as a user would.

use std::path::PathBuf;

use katara_cli::{parse_args, run, Command, CrowdMode, IngestChoice, RunStatus};
use katara_serve::ServePolicy;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("katara-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

const KB_NT: &str = r#"
<y:capital> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <y:city> .
<y:Rossi> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <y:person> .
<y:Klate> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <y:person> .
<y:Pirlo> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <y:person> .
<y:Italy> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <y:country> .
<y:SouthAfrica> <http://www.w3.org/2000/01/rdf-schema#label> "S. Africa" .
<y:SouthAfrica> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <y:country> .
<y:Spain> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <y:country> .
<y:Rome> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <y:capital> .
<y:Pretoria> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <y:capital> .
<y:Madrid> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <y:capital> .
<y:Rossi> <y:nationality> <y:Italy> .
<y:Klate> <y:nationality> <y:SouthAfrica> .
<y:Pirlo> <y:nationality> <y:Italy> .
<y:Italy> <y:hasCapital> <y:Rome> .
<y:Spain> <y:hasCapital> <y:Madrid> .
"#;

const TABLE_CSV: &str = "A,B,C\n\
    Rossi,Italy,Rome\n\
    Klate,S. Africa,Pretoria\n\
    Pirlo,Italy,Madrid\n";

const FACTS_TSV: &str = "S. Africa\thasCapital\tPretoria\nKlate\tnationality\tS. Africa\n";

#[test]
fn clean_repairs_figure1_from_files() {
    let dir = tmpdir("clean");
    let kb = dir.join("kb.nt");
    let table = dir.join("t.csv");
    let facts = dir.join("facts.tsv");
    let out = dir.join("repaired.csv");
    let enriched = dir.join("enriched.nt");
    std::fs::write(&kb, KB_NT).unwrap();
    std::fs::write(&table, TABLE_CSV).unwrap();
    std::fs::write(&facts, FACTS_TSV).unwrap();

    let args: Vec<String> = [
        "clean",
        "--table",
        table.to_str().unwrap(),
        "--kb",
        kb.to_str().unwrap(),
        "--crowd",
        &format!("facts:{}", facts.display()),
        "--out",
        out.to_str().unwrap(),
        "--enriched-kb",
        enriched.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    run(parse_args(&args).unwrap()).unwrap();

    // Top-1 repair applied: Madrid -> Rome.
    let repaired = std::fs::read_to_string(&out).unwrap();
    assert!(repaired.contains("Pirlo,Italy,Rome"), "{repaired}");
    assert!(repaired.contains("Klate,S. Africa,Pretoria"));

    // Enrichment wrote the confirmed fact back as N-Triples.
    let nt = std::fs::read_to_string(&enriched).unwrap();
    assert!(
        nt.contains("<y:SouthAfrica> <y:hasCapital> <y:Pretoria> ."),
        "{nt}"
    );
    // And the enriched KB reloads.
    let kb2 = katara_kb::ntriples::parse("enriched", &nt).unwrap();
    let sa = kb2.resources_by_label("S. Africa")[0];
    let pretoria = kb2.resources_by_label("Pretoria")[0];
    let has_capital = kb2.property_by_name("y:hasCapital").unwrap();
    assert!(kb2.holds(sa, has_capital, pretoria));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_with_delta_recleans_the_edited_table() {
    let dir = tmpdir("delta");
    let kb = dir.join("kb.nt");
    let table = dir.join("t.csv");
    let edits = dir.join("edits.csv");
    let facts = dir.join("facts.tsv");
    let out = dir.join("repaired.csv");
    std::fs::write(&kb, KB_NT).unwrap();
    std::fs::write(&table, TABLE_CSV).unwrap();
    std::fs::write(&facts, FACTS_TSV).unwrap();
    // Fix the erroneous row by hand, append a valid row, drop Klate.
    std::fs::write(
        &edits,
        "op,row,A,B,C\n\
         upsert,2,Pirlo,Italy,Rome\n\
         upsert,3,Rossi,Italy,Rome\n\
         delete,1,,,\n",
    )
    .unwrap();

    let args: Vec<String> = [
        "clean",
        "--table",
        table.to_str().unwrap(),
        "--kb",
        kb.to_str().unwrap(),
        "--crowd",
        &format!("facts:{}", facts.display()),
        "--delta",
        edits.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let status = run(parse_args(&args).unwrap()).unwrap();
    // Every surviving row is KB-valid, so the incremental re-clean is
    // degradation-free even though the bootstrap run asked questions.
    assert_eq!(status, RunStatus::Clean);

    // The output reflects the edited table, not the base one.
    let repaired = std::fs::read_to_string(&out).unwrap();
    assert!(repaired.contains("Pirlo,Italy,Rome"), "{repaired}");
    assert!(repaired.contains("Rossi,Italy,Rome"), "{repaired}");
    assert!(!repaired.contains("Klate"), "{repaired}");
    assert!(!repaired.contains("Madrid"), "{repaired}");

    // A malformed edits file is a usage error, not a crash.
    std::fs::write(&edits, "op,row,A\nupsert,0,x\n").unwrap();
    let err = run(parse_args(&args).unwrap()).unwrap_err();
    assert!(
        matches!(err, katara_cli::CliError::Usage(_)),
        "expected a usage error, got {err:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn discover_and_stats_run() {
    let dir = tmpdir("discover");
    let kb = dir.join("kb.nt");
    let table = dir.join("t.csv");
    std::fs::write(&kb, KB_NT).unwrap();
    std::fs::write(&table, TABLE_CSV).unwrap();

    run(Command::KbStats {
        kb: kb.to_str().unwrap().into(),
        ingest: IngestChoice::Strict,
    })
    .unwrap();
    run(Command::Discover {
        table: table.to_str().unwrap().into(),
        kb: kb.to_str().unwrap().into(),
        k: 3,
        ingest: IngestChoice::Strict,
        threads: None,
    })
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trust_mode_enriches_everything() {
    let dir = tmpdir("trust");
    let kb = dir.join("kb.nt");
    let table = dir.join("t.csv");
    let enriched = dir.join("enriched.nt");
    std::fs::write(&kb, KB_NT).unwrap();
    std::fs::write(&table, TABLE_CSV).unwrap();
    run(Command::Clean {
        table: table.to_str().unwrap().into(),
        kb: kb.to_str().unwrap().into(),
        crowd: CrowdMode::Policy(ServePolicy::Trust),
        k: 3,
        out: None,
        enriched_kb: Some(enriched.to_str().unwrap().into()),
        max_questions: None,
        ingest: IngestChoice::Strict,
        threads: None,
        metrics: None,
        trace: false,
        delta: None,
        crowd_agg: Default::default(),
    })
    .unwrap();
    // Trust mode confirms even the wrong capital: the KB gains both the
    // S. Africa fact and the (wrong) Italy->Madrid fact — the user chose
    // to trust the table.
    let nt = std::fs::read_to_string(&enriched).unwrap();
    assert!(nt.contains("<y:SouthAfrica> <y:hasCapital> <y:Pretoria>"));
    assert!(nt.contains("<y:Italy> <y:hasCapital> <y:Madrid>"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exhausted_budget_degrades_instead_of_failing() {
    let dir = tmpdir("budget");
    let kb = dir.join("kb.nt");
    let table = dir.join("t.csv");
    std::fs::write(&kb, KB_NT).unwrap();
    std::fs::write(&table, TABLE_CSV).unwrap();
    let status = run(Command::Clean {
        table: table.to_str().unwrap().into(),
        kb: kb.to_str().unwrap().into(),
        crowd: CrowdMode::Policy(ServePolicy::Skeptic),
        k: 3,
        out: None,
        enriched_kb: None,
        max_questions: Some(0),
        ingest: IngestChoice::Strict,
        threads: None,
        metrics: None,
        trace: false,
        delta: None,
        crowd_agg: Default::default(),
    })
    .unwrap();
    assert_eq!(status, RunStatus::Degraded);
    std::fs::remove_dir_all(&dir).ok();
}

/// The Figure 1 KB, adversarially mangled: two malformed statements, a
/// subClassOf cycle, a dangling object reference, and an oversized
/// literal. Everything the clean KB has is still present.
fn corrupted_kb() -> String {
    let big = "x".repeat(2 << 20); // 2 MiB, over the lenient 1 MiB cap
    format!(
        "{KB_NT}\
         this line is not a triple\n\
         <y:broken> <y:p> \"unterminated\n\
         <y:city> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <y:capital> .\n\
         <y:Rossi> <y:playsFor> <y:Juventus> .\n\
         <y:junk> <y:blob> \"{big}\" .\n"
    )
    // y:capital subClassOf y:city already exists, so the injected reverse
    // edge closes a cycle; y:Juventus is referenced but never described.
}

/// The Figure 1 table with a ragged row and an oversized cell appended.
fn corrupted_table() -> String {
    let big = "y".repeat(2 << 20);
    format!("{TABLE_CSV}extra,field,count,is-wrong\nBlob,{big},Rome\n")
}

#[test]
fn lenient_ingestion_survives_corrupted_inputs_and_degrades() {
    let dir = tmpdir("lenient");
    let kb = dir.join("kb.nt");
    let table = dir.join("t.csv");
    let facts = dir.join("facts.tsv");
    let out = dir.join("repaired.csv");
    std::fs::write(&kb, corrupted_kb()).unwrap();
    std::fs::write(&table, corrupted_table()).unwrap();
    std::fs::write(&facts, FACTS_TSV).unwrap();

    let args: Vec<String> = [
        "clean",
        "--table",
        table.to_str().unwrap(),
        "--kb",
        kb.to_str().unwrap(),
        "--crowd",
        &format!("facts:{}", facts.display()),
        "--out",
        out.to_str().unwrap(),
        "--lenient",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let status = run(parse_args(&args).unwrap()).unwrap();
    // Quarantined lines and the repaired cycle make the run degraded
    // (exit code 3 in main), but the pipeline still completed end to end
    // on the surviving rows:
    assert_eq!(status, RunStatus::Degraded);
    let repaired = std::fs::read_to_string(&out).unwrap();
    assert!(repaired.contains("Pirlo,Italy,Rome"), "{repaired}");
    // The quarantined rows are gone from the output, not silently kept.
    assert!(!repaired.contains("is-wrong"));
    assert!(!repaired.contains("Blob"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn strict_ingestion_rejects_the_same_corrupted_inputs() {
    let dir = tmpdir("strict");
    let kb = dir.join("kb.nt");
    let table = dir.join("t.csv");
    std::fs::write(&kb, corrupted_kb()).unwrap();
    std::fs::write(&table, corrupted_table()).unwrap();

    // Strict is the default; the corrupted KB fails with the first bad
    // line's number in the error.
    let err = run(Command::KbStats {
        kb: kb.to_str().unwrap().into(),
        ingest: IngestChoice::Strict,
    })
    .unwrap_err();
    match err {
        katara_cli::CliError::Kb(katara_kb::ntriples::NtError::Syntax { line, .. }) => {
            // KB_NT has 17 lines (leading blank + 16 statements); the
            // first injected defect is right after it.
            assert_eq!(line, 18, "{err:?}");
        }
        other => panic!("expected a line-numbered syntax error, got {other:?}"),
    }

    // A clean KB with the corrupted table: strict CSV load fails on the
    // ragged row, also line-numbered.
    std::fs::write(&kb, KB_NT).unwrap();
    let err = run(Command::Clean {
        table: table.to_str().unwrap().into(),
        kb: kb.to_str().unwrap().into(),
        crowd: CrowdMode::Policy(ServePolicy::Skeptic),
        k: 3,
        out: None,
        enriched_kb: None,
        max_questions: None,
        ingest: IngestChoice::Strict,
        threads: None,
        metrics: None,
        trace: false,
        delta: None,
        crowd_agg: Default::default(),
    })
    .unwrap_err();
    match err {
        katara_cli::CliError::Csv(katara_table::csv::CsvError::RaggedRow {
            line,
            found,
            expected,
        }) => {
            assert_eq!((line, found, expected), (5, 4, 3), "{err:?}");
        }
        other => panic!("expected a line-numbered ragged-row error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lenient_flag_parses() {
    let args: Vec<String> = ["kb-stats", "--kb", "k.nt", "--lenient"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    match parse_args(&args).unwrap() {
        Command::KbStats { ingest, .. } => assert_eq!(ingest, IngestChoice::Lenient),
        other => panic!("{other:?}"),
    }
    // Default is strict.
    let args: Vec<String> = ["kb-stats", "--kb", "k.nt"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    match parse_args(&args).unwrap() {
        Command::KbStats { ingest, .. } => assert_eq!(ingest, IngestChoice::Strict),
        other => panic!("{other:?}"),
    }
}

/// Run `clean --metrics` on `table_csv` over the Figure 1 KB and return
/// the metrics file body.
fn clean_with_metrics(dir: &std::path::Path, tag: &str, table_csv: &str, threads: usize) -> String {
    let kb = dir.join("kb.nt");
    let table = dir.join("t.csv");
    let facts = dir.join("facts.tsv");
    let metrics = dir.join(format!("metrics-{tag}.json"));
    std::fs::write(&kb, KB_NT).unwrap();
    std::fs::write(&table, table_csv).unwrap();
    std::fs::write(&facts, FACTS_TSV).unwrap();
    let args: Vec<String> = [
        "clean",
        "--table",
        table.to_str().unwrap(),
        "--kb",
        kb.to_str().unwrap(),
        "--crowd",
        &format!("facts:{}", facts.display()),
        "--threads",
        &threads.to_string(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    run(parse_args(&args).unwrap()).unwrap();
    std::fs::read_to_string(&metrics).unwrap()
}

/// Everything before `"nondeterministic"` — the byte-diffable half.
fn deterministic_half(doc: &str) -> &str {
    let cut = doc
        .find("\"nondeterministic\"")
        .expect("metrics document has a nondeterministic section");
    &doc[..cut]
}

#[test]
fn metrics_flag_writes_deterministic_run_metrics() {
    let dir = tmpdir("metrics");
    let one = clean_with_metrics(&dir, "t1", TABLE_CSV, 1);
    let eight = clean_with_metrics(&dir, "t8", TABLE_CSV, 8);

    assert!(
        one.contains("\"schema\": \"katara-run-metrics/v1\""),
        "{one}"
    );
    // The run actually exercised the pipeline: probes, crowd spend, and
    // at least one repair all show up as non-zero counters.
    assert!(!one.contains("\"discovery.type_probes\": 0,"), "{one}");
    assert!(!one.contains("\"crowd.questions_asked\": 0,"), "{one}");
    assert!(!one.contains("\"repair.tuples_repaired\": 0,"), "{one}");
    assert!(one.contains("\"threads\": 1"), "{one}");
    assert!(eight.contains("\"threads\": 8"), "{eight}");

    // The determinism contract CI enforces, in miniature: the whole
    // deterministic section is byte-identical across thread counts.
    assert_eq!(deterministic_half(&one), deterministic_half(&eight));
    std::fs::remove_dir_all(&dir).ok();
}

/// The typo'd copy of the Figure 1 table CI cleans: `Rosi`, `Itly` and
/// `Madird` have no exact label, so they go through the fuzzy label
/// search, whose output must not depend on the thread count either.
#[test]
fn typod_cells_run_the_fuzzy_label_search_deterministically() {
    let typos = include_str!("../../../examples/data/soccer_typos.csv");
    let dir = tmpdir("metrics-typos");
    let one = clean_with_metrics(&dir, "t1", typos, 1);
    let eight = clean_with_metrics(&dir, "t8", typos, 8);
    let fuzzy = one
        .split("\"kb.label_fuzzy_lookups\": ")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("no kb.label_fuzzy_lookups in {one}"));
    assert!(fuzzy >= 1, "{one}");
    assert_eq!(deterministic_half(&one), deterministic_half(&eight));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_files_error_cleanly() {
    let err = run(Command::KbStats {
        kb: "/nonexistent/kb.nt".into(),
        ingest: IngestChoice::Strict,
    })
    .unwrap_err();
    assert!(matches!(err, katara_cli::CliError::Io(_)));
}
