//! Concurrency-determinism suite for `namer serve`: the determinism
//! grid of `tests/determinism.rs` (byte-identical output at any
//! file-threads × cache-warmth setting) extended through the daemon.
//!
//! Three layers:
//! * the same request transcript replayed at every grid setting yields
//!   identical findings, and identical summary/diagnostics/counters at
//!   every thread count of one warmth (and identical full response
//!   bytes along the thread axis);
//! * daemon findings equal a direct (CLI-path) `DetectSession` run at
//!   the same setting;
//! * N parallel TCP clients each receive responses byte-identical to a
//!   serial single-connection transcript of the same requests.

use namer::core::{Namer, NamerBuilder, NamerConfig, SavedModel, Violation};
use namer::patterns::MiningConfig;
use namer::serve::{serve_listener, serve_transcript, ModelHost, ServeConfig};
use namer::syntax::{Lang, SourceFile};
use namer_base::json;
use namer_base::json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const IDIOM: &str = "class T(TestCase):\n    def t(self):\n        self.assertEqual(v.count, 3)\n";
const MISUSE: &str = "class T(TestCase):\n    def t(self):\n        self.assertTrue(v.count, 3)\n";

fn detect_config(threads: usize) -> NamerConfig {
    NamerConfig {
        mining: MiningConfig {
            min_path_count: 2,
            min_support: 5,
            ..MiningConfig::default()
        },
        labeled_per_class: 3,
        cv_repeats: 2,
        threads,
        ..NamerConfig::default()
    }
}

fn model_bin() -> &'static [u8] {
    static BIN: OnceLock<Vec<u8>> = OnceLock::new();
    BIN.get_or_init(|| {
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
        let commits = vec![(
            "class T(TestCase):\n    def t(self):\n        self.assertTrue(v.count, 1)\n"
                .to_owned(),
            "class T(TestCase):\n    def t(self):\n        self.assertEqual(v.count, 1)\n"
                .to_owned(),
        )];
        let namer = Namer::train(
            &files,
            &commits,
            |v: &Violation| v.original.as_str() == "True",
            &detect_config(1),
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

fn config(threads: usize) -> ServeConfig {
    let mut config = ServeConfig::new(detect_config(threads));
    config.scrub_timings = true;
    config
}

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "namer-serve-det-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The two analyze batches replayed everywhere. Distinct trailing
/// statements keep content digests distinct.
fn batch(tag: u32) -> Vec<(String, String)> {
    let mut files = vec![
        ("bug.py".to_owned(), MISUSE.to_owned()),
        ("ok.py".to_owned(), IDIOM.to_owned()),
    ];
    for i in 0..6 {
        files.push((format!("b{tag}_{i}.py"), format!("{IDIOM}y{tag}_{i} = {i}\n")));
    }
    files
}

fn init_line(id: u64) -> String {
    format!("{{\"jsonrpc\":\"2.0\",\"id\":{id},\"method\":\"initialize\",\"params\":{{\"protocol\":1}}}}")
}

fn analyze_line(id: u64, tag: u32) -> String {
    let files: Vec<Value> = batch(tag)
        .into_iter()
        .map(|(path, content)| json!({"repo": "client", "path": path, "content": content}))
        .collect();
    json!({
        "jsonrpc": "2.0",
        "id": id,
        "method": "file.analyze",
        "params": {"files": files},
    })
    .to_string()
}

/// The canonical transcript: handshake, explicit model pre-warm, then
/// two analyze batches. Pre-warming pins which request pays (and
/// reports) the session build, so replays agree on every byte.
fn transcript() -> String {
    [
        init_line(1),
        "{\"jsonrpc\":\"2.0\",\"id\":100,\"method\":\"model.load\",\"params\":{\"model\":\"m\"}}"
            .to_owned(),
        analyze_line(2, 0),
        analyze_line(3, 1),
    ]
    .join("\n")
}

/// Findings of a response line as a comparable serialized string.
fn findings_of(line: &str) -> String {
    let v = Value::parse(line).expect("response parses");
    assert!(
        v.get("error").is_none(),
        "expected a result response, got {line}"
    );
    v["result"]["findings"].to_string()
}

fn result_field(line: &str, field: &str) -> Value {
    let v = Value::parse(line).expect("response parses");
    v["result"][field].clone()
}

#[test]
fn serve_grid_findings_identical_at_every_threads_shards_setting() {
    // The grid is file threads × cache warmth: cacheless, a cold cache
    // root, and the same root warmed by the cold replay. Findings agree
    // everywhere; summary (cache accounting included), diagnostics and
    // counter totals agree at every thread count of one warmth
    // (DESIGN.md §10's deterministic-sum invariant).
    let baseline: Vec<String> = serve_transcript(config(1), host(), &transcript())
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(baseline.len(), 4);
    let mut per_warmth: Vec<Option<Vec<String>>> = vec![None, None, None];
    for threads in [1, 2, 8] {
        let root = scratch("grid");
        for (w, warmth) in ["cacheless", "cold", "warm"].into_iter().enumerate() {
            let mut cfg = config(threads);
            if warmth != "cacheless" {
                cfg.cache_root = Some(root.clone());
            }
            let out = serve_transcript(cfg, host(), &transcript());
            let lines: Vec<String> = out.lines().map(str::to_owned).collect();
            assert_eq!(lines.len(), 4, "t={threads} {warmth}");
            let reference = per_warmth[w].get_or_insert_with(|| lines.clone());
            for idx in [2, 3] {
                assert_eq!(
                    findings_of(&lines[idx]),
                    findings_of(&baseline[idx]),
                    "findings diverged at t={threads} {warmth} response {idx}"
                );
                for field in ["summary", "diagnostics"] {
                    assert_eq!(
                        result_field(&lines[idx], field),
                        result_field(&reference[idx], field),
                        "{field} diverged at t={threads} {warmth}"
                    );
                }
                assert_eq!(
                    result_field(&lines[idx], "metrics")["counters"],
                    result_field(&reference[idx], "metrics")["counters"],
                    "counters diverged at t={threads} {warmth}"
                );
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }
    // The warm replay really was warm: its first analyze hit the cache.
    let warm = per_warmth[2].as_ref().expect("warm replay ran");
    let hits = &result_field(&warm[2], "metrics")["counters"]["cache_hits"];
    assert!(hits.as_u64().is_some_and(|n| n > 0), "warm replay missed: {hits}");
}

#[test]
fn serve_thread_axis_is_byte_identical() {
    // Even the full scrubbed responses cannot depend on the file-thread
    // count.
    let baseline = serve_transcript(config(1), host(), &transcript());
    for threads in [2, 8] {
        let out = serve_transcript(config(threads), host(), &transcript());
        assert_eq!(out, baseline, "bytes diverged at t={threads}");
    }
}

#[test]
fn serve_findings_match_direct_session_at_every_setting() {
    // The daemon's detection path is the CLI's detection path: compare
    // wire findings against a direct DetectSession run per grid point.
    for threads in [1, 2, 8] {
        let files: Vec<SourceFile> = batch(0)
            .into_iter()
            .map(|(path, content)| SourceFile::new("client", path, content, Lang::Python))
            .collect();
        let mut session = NamerBuilder::new()
            .model(SavedModel::from_bytes(model_bin()).unwrap())
            .config(detect_config(threads))
            .build()
            .expect("session builds");
        let outcome = session.run(&files).expect("cacheless run cannot fail");
        assert!(!outcome.reports.is_empty());
        let direct: Vec<(String, String, u32, String, String, u64)> = outcome
            .reports
            .iter()
            .map(|r| {
                (
                    r.violation.repo.clone(),
                    r.violation.path.clone(),
                    r.violation.line,
                    r.violation.original.as_str().to_owned(),
                    r.violation.suggested.as_str().to_owned(),
                    r.decision.to_bits(),
                )
            })
            .collect();

        let input = [init_line(1), analyze_line(2, 0)].join("\n");
        let out = serve_transcript(config(threads), host(), &input);
        let line = out.lines().nth(1).expect("analyze response");
        let v = Value::parse(line).unwrap();
        let served: Vec<(String, String, u32, String, String, u64)> = v["result"]["findings"]
            .as_array()
            .expect("findings array")
            .iter()
            .map(|f| {
                (
                    f["repo"].as_str().unwrap().to_owned(),
                    f["path"].as_str().unwrap().to_owned(),
                    f["line"].as_u64().unwrap() as u32,
                    f["original"].as_str().unwrap().to_owned(),
                    f["suggested"].as_str().unwrap().to_owned(),
                    f["decision"].as_f64().unwrap().to_bits(),
                )
            })
            .collect();
        assert_eq!(served, direct, "daemon != direct session at t={threads}");
    }
}

// ----- parallel TCP clients ---------------------------------------------------

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).unwrap();
        self.stream.write_all(b"\n").unwrap();
    }

    fn recv(&mut self) -> String {
        let mut buf = String::new();
        self.reader.read_line(&mut buf).expect("response line");
        assert!(buf.ends_with('\n'), "truncated response: {buf:?}");
        buf.trim_end_matches('\n').to_owned()
    }
}

#[test]
fn serve_parallel_tcp_clients_match_serial_transcript() {
    // Serial single-connection expectation for the exact request
    // sequence each TCP client will send (after a model pre-warm).
    let expected: Vec<String> = serve_transcript(config(2), host(), &transcript())
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(expected.len(), 4);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let mut cfg = config(2);
    cfg.queue_capacity = 32;
    let server = std::thread::spawn(move || serve_listener(cfg, host(), listener));

    // Pre-warm the session so no client's first analyze pays (and
    // reports) the model load — same shape as the serial transcript.
    {
        let mut warm = Client::connect(addr);
        warm.send(&init_line(1));
        assert_eq!(warm.recv(), expected[0]);
        warm.send("{\"jsonrpc\":\"2.0\",\"id\":100,\"method\":\"model.load\",\"params\":{\"model\":\"m\"}}");
        assert_eq!(warm.recv(), expected[1]);
    }

    let clients: Vec<_> = (0..4)
        .map(|_| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                client.send(&init_line(1));
                assert_eq!(client.recv(), expected[0]);
                // Pipeline both batches, then read both responses: per
                // connection, responses return in request order.
                client.send(&analyze_line(2, 0));
                client.send(&analyze_line(3, 1));
                assert_eq!(client.recv(), expected[2], "parallel client diverged");
                assert_eq!(client.recv(), expected[3], "parallel client diverged");
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    let mut closer = Client::connect(addr);
    closer.send(&init_line(1));
    assert_eq!(closer.recv(), expected[0]);
    closer.send("{\"jsonrpc\":\"2.0\",\"id\":9,\"method\":\"shutdown\"}");
    assert_eq!(
        closer.recv(),
        "{\"jsonrpc\":\"2.0\",\"id\":9,\"result\":{\"ok\":true}}"
    );
    server.join().expect("server thread").expect("server exits cleanly");
}
