//! Golden-transcript conformance suite for the `namer serve` wire
//! protocol (DESIGN.md §13).
//!
//! Every test drives [`serve_transcript`] — the same `ServeState` the
//! stdio and TCP transports use — with a recorded request transcript
//! and diffs the response bytes **exactly**, so the wire format
//! (envelope key order, error codes, message text, result schemas)
//! cannot drift silently. Responses that embed detection results are
//! reconstructed through the same public `proto` schema structs from a
//! direct `DetectSession` run — pinning the daemon's promise that its
//! findings are byte-identical to CLI-path runs.

use namer::core::{fix_line, Namer, NamerBuilder, NamerConfig, SavedModel, Violation};
use namer::observe::PipelineMetrics;
use namer::patterns::MiningConfig;
use namer::serve::{
    render_notification, render_ok, serve_transcript, AnalyzeResult, CacheFlushResult, Finding,
    FindingsEvent, ModelHost, ModelLoadResult, ServeConfig, Summary,
};
use namer::syntax::{Lang, SourceFile};
use namer_base::json;
use namer_base::json::{ToJson, Value};
use std::sync::{Arc, OnceLock};

const IDIOM: &str = "class T(TestCase):\n    def t(self):\n        self.assertEqual(v.count, 3)\n";
const MISUSE: &str = "class T(TestCase):\n    def t(self):\n        self.assertTrue(v.count, 3)\n";

/// The byte-exact `initialize` success response for request id 1.
const INIT_OK: &str = "{\"jsonrpc\":\"2.0\",\"id\":1,\"result\":{\"protocol\":1,\
    \"server\":\"namer-serve\",\"version\":\"0.1.0\",\"models\":[\"m\"],\
    \"methods\":[\"initialize\",\"ping\",\"shutdown\",\"file.analyze\",\
    \"model.load\",\"cache.flush\",\"file.watch\",\"file.unwatch\"],\
    \"capabilities\":{\"watch\":true,\
    \"languages\":[\"python\",\"java\",\"javascript\"]}}}";

fn init_line(id: u64) -> String {
    format!("{{\"jsonrpc\":\"2.0\",\"id\":{id},\"method\":\"initialize\",\"params\":{{\"protocol\":1}}}}")
}

fn mini_config() -> NamerConfig {
    NamerConfig {
        mining: MiningConfig {
            min_path_count: 2,
            min_support: 5,
            ..MiningConfig::default()
        },
        labeled_per_class: 3,
        cv_repeats: 2,
        threads: 1,
        ..NamerConfig::default()
    }
}

fn training_corpus() -> Vec<SourceFile> {
    let mut files: Vec<SourceFile> = (0..40)
        .map(|i| {
            SourceFile::new(
                format!("r{}", i % 3),
                format!("f{i}.py"),
                format!("{IDIOM}x{i} = {i}\n"),
                Lang::Python,
            )
        })
        .collect();
    files.push(SourceFile::new("r0", "bug.py", MISUSE, Lang::Python));
    files
}

fn model_bin() -> &'static [u8] {
    static BIN: OnceLock<Vec<u8>> = OnceLock::new();
    BIN.get_or_init(|| {
        let commits = vec![(
            "class T(TestCase):\n    def t(self):\n        self.assertTrue(v.count, 1)\n"
                .to_owned(),
            "class T(TestCase):\n    def t(self):\n        self.assertEqual(v.count, 1)\n"
                .to_owned(),
        )];
        let namer = Namer::train(
            &training_corpus(),
            &commits,
            |v: &Violation| v.original.as_str() == "True",
            &mini_config(),
        );
        SavedModel::from_namer(&namer).to_binary()
    })
}

fn host() -> ModelHost {
    ModelHost::Single {
        name: "m".to_owned(),
        model: Arc::new(SavedModel::from_bytes(model_bin()).expect("model parses")),
    }
}

/// Deterministic daemon config: scrubbed timings, cacheless, metrics
/// aggregate off — responses depend only on the requests.
fn config() -> ServeConfig {
    let mut config = ServeConfig::new(mini_config());
    config.scrub_timings = true;
    config
}

fn serve(input: &str) -> String {
    serve_transcript(config(), host(), input)
}

#[test]
fn serve_golden_handshake_and_shutdown() {
    let input = [
        init_line(1),
        "{\"jsonrpc\":\"2.0\",\"id\":2,\"method\":\"ping\"}".to_owned(),
        "{\"jsonrpc\":\"2.0\",\"id\":3,\"method\":\"shutdown\"}".to_owned(),
        // After shutdown every request — even ping — is refused.
        "{\"jsonrpc\":\"2.0\",\"id\":4,\"method\":\"ping\"}".to_owned(),
    ]
    .join("\n");
    let expected = format!(
        "{INIT_OK}\n\
         {{\"jsonrpc\":\"2.0\",\"id\":2,\"result\":{{\"pong\":true}}}}\n\
         {{\"jsonrpc\":\"2.0\",\"id\":3,\"result\":{{\"ok\":true}}}}\n\
         {{\"jsonrpc\":\"2.0\",\"id\":4,\"error\":{{\"code\":-32005,\
         \"message\":\"server is shutting down\",\"data\":{{\"kind\":\"shutting_down\"}}}}}}\n"
    );
    assert_eq!(serve(&input), expected);
}

#[test]
fn serve_golden_error_paths() {
    let input = [
        // Before initialize, only initialize is accepted.
        "{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"ping\"}".to_owned(),
        // Incompatible protocol leaves the connection uninitialized…
        "{\"jsonrpc\":\"2.0\",\"id\":2,\"method\":\"initialize\",\"params\":{\"protocol\":99}}"
            .to_owned(),
        // …so a correct initialize afterwards succeeds…
        "{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"initialize\",\"params\":{\"protocol\":1}}"
            .to_owned(),
        // …and a second one is rejected.
        "{\"jsonrpc\":\"2.0\",\"id\":3,\"method\":\"initialize\",\"params\":{\"protocol\":1}}"
            .to_owned(),
        // Malformed JSON: id null.
        "{oops".to_owned(),
        // Unknown method.
        "{\"jsonrpc\":\"2.0\",\"id\":4,\"method\":\"frobnicate\"}".to_owned(),
        // Bad envelope: wrong jsonrpc version (id still echoed).
        "{\"jsonrpc\":\"1.0\",\"id\":5,\"method\":\"ping\"}".to_owned(),
        // Bad envelope: illegal id type.
        "{\"jsonrpc\":\"2.0\",\"id\":[1],\"method\":\"ping\"}".to_owned(),
    ]
    .join("\n");
    let expected = format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":1,\"error\":{{\"code\":-32001,\
         \"message\":\"call initialize before ping\",\"data\":{{\"kind\":\"not_initialized\"}}}}}}\n\
         {{\"jsonrpc\":\"2.0\",\"id\":2,\"error\":{{\"code\":-32003,\
         \"message\":\"unsupported protocol 99 (server speaks 1)\",\
         \"data\":{{\"kind\":\"incompatible_protocol\"}}}}}}\n\
         {INIT_OK}\n\
         {{\"jsonrpc\":\"2.0\",\"id\":3,\"error\":{{\"code\":-32002,\
         \"message\":\"connection already initialized\",\
         \"data\":{{\"kind\":\"already_initialized\"}}}}}}\n\
         {{\"jsonrpc\":\"2.0\",\"id\":null,\"error\":{{\"code\":-32700,\
         \"message\":\"invalid JSON\",\"data\":{{\"kind\":\"parse_error\"}}}}}}\n\
         {{\"jsonrpc\":\"2.0\",\"id\":4,\"error\":{{\"code\":-32601,\
         \"message\":\"unknown method \\\"frobnicate\\\"\",\
         \"data\":{{\"kind\":\"method_not_found\"}}}}}}\n\
         {{\"jsonrpc\":\"2.0\",\"id\":5,\"error\":{{\"code\":-32600,\
         \"message\":\"missing or wrong \\\"jsonrpc\\\" (expected \\\"2.0\\\")\",\
         \"data\":{{\"kind\":\"invalid_request\"}}}}}}\n\
         {{\"jsonrpc\":\"2.0\",\"id\":null,\"error\":{{\"code\":-32600,\
         \"message\":\"request id must be a string, number, or null\",\
         \"data\":{{\"kind\":\"invalid_request\"}}}}}}\n"
    );
    assert_eq!(serve(&input), expected);
}

#[test]
fn serve_golden_out_of_order_and_typed_ids() {
    // Ids are client-chosen labels: out-of-order numbers, strings, and
    // null all echo verbatim, and responses come back in request order.
    let input = [
        init_line(1),
        "{\"jsonrpc\":\"2.0\",\"id\":7,\"method\":\"ping\"}".to_owned(),
        "{\"jsonrpc\":\"2.0\",\"id\":3,\"method\":\"ping\"}".to_owned(),
        "{\"jsonrpc\":\"2.0\",\"id\":\"abc\",\"method\":\"ping\"}".to_owned(),
        "{\"jsonrpc\":\"2.0\",\"id\":null,\"method\":\"ping\"}".to_owned(),
    ]
    .join("\n");
    let expected = format!(
        "{INIT_OK}\n\
         {{\"jsonrpc\":\"2.0\",\"id\":7,\"result\":{{\"pong\":true}}}}\n\
         {{\"jsonrpc\":\"2.0\",\"id\":3,\"result\":{{\"pong\":true}}}}\n\
         {{\"jsonrpc\":\"2.0\",\"id\":\"abc\",\"result\":{{\"pong\":true}}}}\n\
         {{\"jsonrpc\":\"2.0\",\"id\":null,\"result\":{{\"pong\":true}}}}\n"
    );
    assert_eq!(serve(&input), expected);
}

#[test]
fn serve_blank_lines_are_ignored() {
    let input = format!(
        "\n   \n{}\n\n{}\n",
        init_line(1),
        "{\"jsonrpc\":\"2.0\",\"id\":2,\"method\":\"ping\"}"
    );
    let out = serve(&input);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "blank lines get no response: {out}");
    assert_eq!(lines[0], INIT_OK);
    assert_eq!(lines[1], "{\"jsonrpc\":\"2.0\",\"id\":2,\"result\":{\"pong\":true}}");
}

/// Builds the batch-analyze request line for the two-file batch used by
/// the analyze goldens.
fn analyze_line(id: u64) -> String {
    let req = json!({
        "jsonrpc": "2.0",
        "id": id,
        "method": "file.analyze",
        "params": {"files": [
            {"repo": "client", "path": "bug.py", "content": MISUSE},
            {"repo": "client", "path": "ok.py", "content": IDIOM},
        ]},
    });
    req.to_string()
}

#[test]
fn serve_golden_batch_analyze_matches_direct_session() {
    let files = vec![
        SourceFile::new("client", "bug.py", MISUSE, Lang::Python),
        SourceFile::new("client", "ok.py", IDIOM, Lang::Python),
    ];
    // The daemon's promise: responses embed exactly what a direct
    // (CLI-path) session run over the same files produces.
    let mut session = NamerBuilder::new()
        .model(SavedModel::from_bytes(model_bin()).unwrap())
        .config(mini_config())
        .build()
        .expect("session builds");
    let outcome = session.run(&files).expect("cacheless run cannot fail");
    assert!(!outcome.reports.is_empty(), "the bug file must produce a finding");

    let expected_result = |first_request: bool| {
        let findings: Vec<Finding> = outcome
            .reports
            .iter()
            .map(|r| {
                let v = &r.violation;
                let fixed = files
                    .iter()
                    .find(|f| f.repo == v.repo && f.path == v.path)
                    .and_then(|f| f.text.lines().nth(v.line as usize - 1))
                    .and_then(|l| fix_line(l, v.original.as_str(), v.suggested.as_str()));
                Finding {
                    repo: v.repo.clone(),
                    path: v.path.clone(),
                    line: v.line,
                    original: v.original.as_str().to_owned(),
                    suggested: v.suggested.as_str().to_owned(),
                    pattern: v.pattern_ty.to_string(),
                    decision: r.decision,
                    rendered: v.rendered.clone(),
                    fixed,
                }
            })
            .collect();
        // The daemon overlays its serve-level accounting on the run's
        // snapshot: one request executed, one `serve` span, and (first
        // request only) the `model_load` span of the session build.
        let mut metrics = outcome.metrics.clone();
        *metrics.counters.get_mut("serve_requests").expect("full key set") += 1;
        metrics.phases.get_mut("serve").expect("full key set").calls += 1;
        if first_request {
            metrics.phases.get_mut("model_load").expect("full key set").calls += 1;
        }
        metrics.scrub_timings();
        let result = AnalyzeResult {
            summary: Summary {
                files: files.len(),
                findings: findings.len(),
                cache: None,
            },
            findings,
            diagnostics: outcome.diagnostics.clone(),
            metrics,
        };
        result.to_value().to_string()
    };

    let input = [init_line(1), analyze_line(2), analyze_line(3)].join("\n");
    let expected = format!(
        "{INIT_OK}\n{}\n{}\n",
        render_ok(&Value::from(2), &expected_result(true)),
        render_ok(&Value::from(3), &expected_result(false)),
    );
    let out = serve(&input);
    assert_eq!(out, expected);
    // And the whole transcript is reproducible byte-for-byte.
    assert_eq!(serve(&input), out);
}

#[test]
fn serve_golden_model_load_and_cache_flush() {
    // Reconstruct the expected bodies from an empty collector: these
    // methods run no detection, so their per-request snapshots carry
    // only the serve-level accounting.
    let base = PipelineMetrics::new().snapshot();
    let serve_only = |model_load: bool| {
        let mut metrics = base.clone();
        *metrics.counters.get_mut("serve_requests").expect("full key set") += 1;
        metrics.phases.get_mut("serve").expect("full key set").calls += 1;
        if model_load {
            metrics.phases.get_mut("model_load").expect("full key set").calls += 1;
        }
        metrics
    };
    let load_result = ModelLoadResult {
        model: "m".to_owned(),
        lang: "Python".to_owned(),
        metrics: serve_only(true),
    }
    .to_value()
    .to_string();
    // Cacheless daemon: nothing to flush, nothing to clear.
    let flush_result = CacheFlushResult {
        flushed: Vec::new(),
        cleared: Vec::new(),
        metrics: serve_only(false),
    }
    .to_value()
    .to_string();

    let input = [
        init_line(1),
        "{\"jsonrpc\":\"2.0\",\"id\":2,\"method\":\"model.load\",\"params\":{\"model\":\"m\"}}"
            .to_owned(),
        "{\"jsonrpc\":\"2.0\",\"id\":3,\"method\":\"cache.flush\"}".to_owned(),
        "{\"jsonrpc\":\"2.0\",\"id\":4,\"method\":\"model.load\",\"params\":{\"model\":\"nope\"}}"
            .to_owned(),
    ]
    .join("\n");
    let expected = format!(
        "{INIT_OK}\n{}\n{}\n\
         {{\"jsonrpc\":\"2.0\",\"id\":4,\"error\":{{\"code\":-32004,\
         \"message\":\"unknown model \\\"nope\\\" (serving \\\"m\\\")\",\
         \"data\":{{\"kind\":\"model_error\"}}}}}}\n",
        render_ok(&Value::from(2), &load_result),
        render_ok(&Value::from(3), &flush_result),
    );
    assert_eq!(serve(&input), expected);
}

#[test]
fn serve_analyze_param_validation_is_typed() {
    // Schema violations answer with invalid_params + a detail string;
    // the detail text is library-dependent, so assert structure, not
    // bytes.
    let input = [
        init_line(1),
        "{\"jsonrpc\":\"2.0\",\"id\":2,\"method\":\"file.analyze\"}".to_owned(),
        "{\"jsonrpc\":\"2.0\",\"id\":3,\"method\":\"file.analyze\",\
         \"params\":{\"files\":[]}}"
            .to_owned(),
        "{\"jsonrpc\":\"2.0\",\"id\":4,\"method\":\"file.analyze\",\
         \"params\":{\"files\":[{\"path\":\"a.py\",\"content\":\"x = 1\\n\"}],\
         \"changed_only\":true}}"
            .to_owned(),
    ]
    .join("\n");
    let out = serve(&input);
    let lines: Vec<Value> = out
        .lines()
        .map(|l| Value::parse(l).expect("responses are JSON"))
        .collect();
    assert_eq!(lines.len(), 4);
    for (i, expected_msg) in [
        (2, "params.files must not be empty"),
        (3, "changed_only requires a server started with --cache-dir"),
    ] {
        let err = &lines[i]["error"];
        assert_eq!(err["code"], json!(-32602), "line {i}: {err}");
        assert_eq!(err["data"]["kind"], json!("invalid_params"));
        assert_eq!(err["message"], json!(expected_msg));
    }
    // The schema-violation response (missing `files`) carries a detail.
    assert_eq!(lines[1]["error"]["code"], json!(-32602));
    assert_eq!(lines[1]["error"]["data"]["kind"], json!("invalid_params"));
    assert!(lines[1]["error"]["data"]["detail"].as_str().is_some());
}

#[test]
fn serve_old_clients_ignore_new_initialize_fields() {
    // The `capabilities` object is additive within protocol revision 1:
    // a client that predates it sees the same known keys it always did
    // (and the method list only ever grows at the tail), so dropping
    // the one unknown key must recover a complete pre-watch handshake.
    let out = serve(&init_line(1));
    let resp = Value::parse(out.lines().next().expect("one response"))
        .expect("initialize response is JSON");
    assert_eq!(resp["result"]["capabilities"]["watch"], json!(true));
    // A capability the server no longer has is absent, which a client
    // reads as "not supported".
    assert!(resp["result"]["capabilities"].get("stmt_regions").is_none());
    assert_eq!(
        resp["result"]["capabilities"]["languages"],
        json!(["python", "java", "javascript"])
    );
    let Value::Object(fields) = &resp["result"] else {
        panic!("result is an object");
    };
    assert!(fields.iter().any(|(k, _)| k == "capabilities"));
    let rest: Vec<&str> = fields
        .iter()
        .map(|(k, _)| k.as_str())
        .filter(|&k| k != "capabilities")
        .collect();
    let known = ["protocol", "server", "version", "models", "methods"];
    assert_eq!(rest.len(), known.len(), "unexpected extra keys: {rest:?}");
    for key in known {
        assert!(rest.contains(&key), "missing {key}");
    }
    let methods = resp["result"]["methods"].as_array().expect("methods is an array");
    assert_eq!(
        methods[..6],
        [
            json!("initialize"),
            json!("ping"),
            json!("shutdown"),
            json!("file.analyze"),
            json!("model.load"),
            json!("cache.flush"),
        ],
        "pre-watch methods must keep their positions"
    );
}

/// Builds a `file.watch` request for `bug.py` with the given content.
fn watch_line(id: u64, content: &str) -> String {
    let req = json!({
        "jsonrpc": "2.0",
        "id": id,
        "method": "file.watch",
        "params": {"repo": "client", "path": "bug.py", "content": content},
    });
    req.to_string()
}

#[test]
fn serve_watch_pushes_findings_notifications_on_change() {
    // Reconstruct the expected findings for the misuse file from a
    // direct session run — the notification bytes must embed exactly
    // those findings.
    let files = vec![SourceFile::new("client", "bug.py", MISUSE, Lang::Python)];
    let mut session = NamerBuilder::new()
        .model(SavedModel::from_bytes(model_bin()).unwrap())
        .config(mini_config())
        .build()
        .expect("session builds");
    let outcome = session.run(&files).expect("cacheless run cannot fail");
    assert!(!outcome.reports.is_empty(), "the bug file must produce a finding");
    let bug_findings: Vec<Finding> = outcome
        .reports
        .iter()
        .map(|r| {
            let v = &r.violation;
            let fixed = files[0]
                .text
                .lines()
                .nth(v.line as usize - 1)
                .and_then(|l| fix_line(l, v.original.as_str(), v.suggested.as_str()));
            Finding {
                repo: v.repo.clone(),
                path: v.path.clone(),
                line: v.line,
                original: v.original.as_str().to_owned(),
                suggested: v.suggested.as_str().to_owned(),
                pattern: v.pattern_ty.to_string(),
                decision: r.decision,
                rendered: v.rendered.clone(),
                fixed,
            }
        })
        .collect();

    let analyze_bug = |id: u64| {
        let req = json!({
            "jsonrpc": "2.0",
            "id": id,
            "method": "file.analyze",
            "params": {"files": [
                {"repo": "client", "path": "bug.py", "content": MISUSE},
            ]},
        });
        req.to_string()
    };
    let input = [
        init_line(1),
        // Subscribe: baseline carries the findings, no notification.
        watch_line(2, MISUSE),
        // Unchanged content → unchanged findings → silence.
        watch_line(3, MISUSE),
        // The fix lands: findings vanish → push an empty set.
        watch_line(4, IDIOM),
        // The bug returns via plain analyze → push the findings again.
        analyze_bug(5),
        "{\"jsonrpc\":\"2.0\",\"id\":6,\"method\":\"file.unwatch\",\
         \"params\":{\"repo\":\"client\",\"path\":\"bug.py\"}}"
            .to_owned(),
        // Unsubscribed: the same analyze now pushes nothing.
        analyze_bug(7),
    ]
    .join("\n");
    let out = serve(&input);
    let lines: Vec<&str> = out.lines().collect();
    // 7 responses + 2 notifications (after ids 4 and 5).
    assert_eq!(lines.len(), 9, "unexpected line count:\n{out}");
    assert_eq!(lines[0], INIT_OK);

    let watch_ok = Value::parse(lines[1]).expect("watch response is JSON");
    assert_eq!(watch_ok["id"], json!(2));
    assert_eq!(watch_ok["result"]["watching"], json!(1));
    let baseline = watch_ok["result"]["findings"].as_array().expect("findings array");
    assert_eq!(baseline.len(), bug_findings.len());
    assert_eq!(watch_ok["result"]["metrics"]["counters"]["watch_events"], json!(0));

    let rewatch = Value::parse(lines[2]).expect("rewatch response is JSON");
    assert_eq!(rewatch["id"], json!(3));
    assert_eq!(rewatch["result"]["findings"], watch_ok["result"]["findings"]);
    assert_eq!(rewatch["result"]["metrics"]["counters"]["watch_events"], json!(0));

    let fixed = Value::parse(lines[3]).expect("fixed response is JSON");
    assert_eq!(fixed["id"], json!(4));
    assert_ne!(
        fixed["result"]["findings"], watch_ok["result"]["findings"],
        "applying the fix must change the findings"
    );
    assert_eq!(fixed["result"]["metrics"]["counters"]["watch_events"], json!(1));
    // The notification is id-less and pushes the file's full new set —
    // exactly what the triggering response reported.
    let note = Value::parse(lines[4]).expect("notification is JSON");
    assert_eq!(note["method"], json!("file.findings"));
    assert!(note.get("id").is_none(), "notifications carry no id: {note}");
    assert_eq!(note["params"]["repo"], json!("client"));
    assert_eq!(note["params"]["path"], json!("bug.py"));
    assert_eq!(note["params"]["findings"], fixed["result"]["findings"]);

    let analyzed = Value::parse(lines[5]).expect("analyze response is JSON");
    assert_eq!(analyzed["id"], json!(5));
    assert_eq!(analyzed["result"]["summary"]["findings"], json!(bug_findings.len()));
    assert_eq!(analyzed["result"]["metrics"]["counters"]["watch_events"], json!(1));
    let event = FindingsEvent {
        repo: "client".to_owned(),
        path: "bug.py".to_owned(),
        findings: bug_findings,
    };
    assert_eq!(
        lines[6],
        render_notification(
            "file.findings",
            &event.to_value().to_string(),
        )
    );

    assert_eq!(
        lines[7],
        render_ok(&Value::from(6), "{\"removed\":true,\"watching\":0}")
    );
    let after = Value::parse(lines[8]).expect("final analyze response is JSON");
    assert_eq!(after["id"], json!(7));
    assert_eq!(after["result"]["metrics"]["counters"]["watch_events"], json!(0));

    // The whole watch transcript is reproducible byte-for-byte.
    assert_eq!(serve(&input), out);
}
