//! End-to-end tests for the `sfstencil` binary.

use serde::Value;
use std::process::Command;

fn sfstencil() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sfstencil"))
}

#[test]
fn unknown_subcommand_exits_2_with_usage() {
    let out = sfstencil().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown command 'frobnicate'"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(stderr.contains("profile"), "usage must list profile: {stderr}");
}

#[test]
fn missing_command_exits_2() {
    let out = sfstencil().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn help_prints_usage_on_stdout_and_exits_0() {
    // `faults --help` must print the usage, not run the default campaign
    for args in [
        vec!["--help"],
        vec!["-h"],
        vec!["profile", "--help"],
        vec!["faults", "--help"],
        vec!["report", "runs.jsonl", "-h"],
    ] {
        let out = sfstencil().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.starts_with("usage: sfstencil"), "{args:?}: {stdout}");
        assert!(out.stderr.is_empty(), "{args:?}");
    }
}

#[test]
fn unknown_flags_exit_2_and_name_the_flag() {
    for args in [
        vec!["profile", "--app", "poisson", "--mesh", "40x20", "--iters", "4", "--bogus-flag"],
        vec!["dse", "--bogus-flag", "--app", "poisson", "--mesh", "64x64"],
        vec!["faults", "--trials", "1", "--bogus-flag"],
        vec!["report", "runs.jsonl", "--bogus-flag"],
    ] {
        let out = sfstencil().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("unknown flag '--bogus-flag'"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no work may start");
    }
}

#[test]
fn flags_a_command_does_not_read_exit_2_and_name_the_flag() {
    let poisson = ["--app", "poisson", "--mesh", "200x30"];
    for (cmd, rest, flag) in [
        (
            "profile",
            &["--iters", "16", "--v", "8", "--p", "8", "--tile", "64", "--mem", "ddr4"][..],
            "--v",
        ),
        ("profile", &["--iters", "16", "--mem", "ddr4"], "--mem"),
        ("explain", &["--v", "8", "--p", "8", "--mem", "ddr4"], "--v"),
        ("explain", &["--mem", "ddr4"], "--mem"),
        (
            "feasibility",
            &["--iters", "5", "--top", "3", "--trace-out", "x", "--exec", "scalar"],
            "--iters",
        ),
        ("feasibility", &["--exec", "scalar"], "--exec"),
        ("compare", &["--json"], "--json"),
        ("dse", &["--exec", "scalar"], "--exec"),
        ("report", &["--v", "8", "--p", "60", "--jobs", "2"], "--jobs"),
        ("check", &["--trace-out", "x"], "--trace-out"),
    ] {
        let args = [&[cmd][..], &poisson, rest].concat();
        let out = sfstencil().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(&format!("unknown flag '{flag}' for {cmd}")), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no work may start");
    }
}

#[test]
fn a_flag_value_is_never_another_flag() {
    // run in a directory of its own, so a file named after a flag would show
    let dir = std::env::temp_dir().join(format!("sfstencil_cli_values_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let profile = ["profile", "--app", "poisson", "--mesh", "40x20", "--iters", "4"];
    for (args, flag) in [
        ([&profile[..], &["--trace-out", "--json"]].concat(), "--trace-out"),
        ([&profile[..], &["--record-out", "--json"]].concat(), "--record-out"),
        ([&profile[..], &["--iters"]].concat(), "--iters"),
        (vec!["faults", "--trials", "--json"], "--trials"),
        (vec!["faults", "--trials", "1", "--seed"], "--seed"),
        (vec!["report", "runs.jsonl", "--out", "--json"], "--out"),
    ] {
        let out = sfstencil().current_dir(&dir).args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(&format!("flag '{flag}' needs a value")), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no work may start");
    }
    assert!(!dir.join("--json").exists(), "a flag was taken for a file name");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn profile_writes_loadable_chrome_trace() {
    let path = std::env::temp_dir().join("sfstencil_cli_trace.json");
    let out = sfstencil()
        .args(["profile", "--app", "poisson", "--mesh", "200x100", "--iters", "100", "--trace-out"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("stall attribution"), "{stdout}");
    assert!(stdout.contains("model divergence"), "{stdout}");

    let doc: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
    assert!(events.len() > 10);
    for e in events {
        assert!(e.get("ph").and_then(Value::as_str).is_some());
        assert!(e.get("pid").and_then(Value::as_u64).is_some());
        assert!(e.get("name").and_then(Value::as_str).is_some());
        if e.get("ph").and_then(Value::as_str) == Some("X") {
            assert!(e.get("ts").is_some() && e.get("dur").is_some());
            assert!(e.get("tid").and_then(Value::as_u64).is_some());
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn profile_json_emits_metrics_document() {
    let out = sfstencil()
        .args(["profile", "--app", "poisson", "--mesh", "200x100", "--iters", "100", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let doc: Value = serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert!(doc.get("stalls").is_some());
    let div = doc.get("divergence").expect("divergence emitted on every run");
    assert!(div.get("pct").is_some());
}

#[test]
fn feasibility_json_parses() {
    let out = sfstencil()
        .args(["feasibility", "--app", "jacobi", "--mesh", "100x100x100", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let doc: Value = serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert!(doc.get("baseline_feasible").is_some());
}

#[test]
fn invalid_numeric_flags_exit_2() {
    for (flag, val) in [("--iters", "0"), ("--batch", "-3"), ("--top", "zebra"), ("--jobs", "0")] {
        let out = sfstencil()
            .args(["dse", "--app", "poisson", "--mesh", "64x64", flag, val])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}={val} must be rejected");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(flag), "error names the flag: {stderr}");
    }
}

#[test]
fn unknown_exec_engine_exits_2() {
    // both flag surfaces: the main parser (profile) and the faults
    // subcommand's own flag set
    let out = sfstencil()
        .args(["profile", "--app", "poisson", "--mesh", "64x32", "--iters", "10", "--exec", "simd"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "profile must reject --exec simd");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--exec must be scalar or fast (got 'simd')"), "{stderr}");

    let out = sfstencil().args(["faults", "--exec", "vector"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "faults must reject --exec vector");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--exec must be scalar or fast (got 'vector')"), "{stderr}");
}

#[test]
fn devices_flag_misuse_exits_2_on_every_subcommand() {
    // `--devices 0` mirrors `--checkpoint-every 0`: rejected up front on
    // all three subcommands that accept it, never clamped to one device
    for sub in [
        vec!["profile", "--app", "poisson", "--mesh", "64x32", "--iters", "10"],
        vec!["dse", "--app", "poisson", "--mesh", "64x64"],
        vec!["faults", "--app", "poisson2d", "--trials", "1"],
    ] {
        let out = sfstencil().args(&sub).args(["--devices", "0"]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{sub:?} must reject --devices 0");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("--devices must be a positive integer"), "{stderr}");
    }
    // unknown link model names are usage errors too
    let out = sfstencil()
        .args(["profile", "--app", "poisson", "--mesh", "64x32", "--iters", "10"])
        .args(["--devices", "2", "--link", "infiniband"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--link must be aurora or pcie"), "{stderr}");
}

#[test]
fn sharding_narrower_than_the_halo_exits_2_with_sfc_x() {
    // shard-count = mesh extent leaves 1-unit slabs — always narrower
    // than the halo, so the SFC-X pre-flight must reject it (2D and 3D)
    for (app, mesh, devices) in [("poisson", "64x300", "300"), ("jacobi", "16x12x10", "10")] {
        let out = sfstencil()
            .args(["profile", "--app", app, "--mesh", mesh, "--iters", "3", "--devices", devices])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{app} sharded to 1-unit slabs must fail");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("SFC-X01"), "error cites the sharding rule: {stderr}");
        assert!(stderr.contains("halo"), "{stderr}");
    }
    // a device count past 2^63 is one more illegal sharding, not an
    // endless device sweep
    let out = sfstencil()
        .args(["profile", "--app", "poisson", "--mesh", "64x300", "--iters", "40"])
        .args(["--devices", "9223372036854775809"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "a 2^63 + 1 device sharding must fail");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("SFC-X01"), "error cites the sharding rule: {stderr}");
    // the faults campaign designs get the same gate
    let out = sfstencil()
        .args(["faults", "--app", "rtm3d", "--trials", "1", "--devices", "4"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "rtm3d campaign mesh cannot shard 4 ways");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--devices 4 is illegal"), "{stderr}");
}

#[test]
fn degenerate_meshes_fail_cleanly_through_the_profile_path() {
    // 1×1 and 1-wide meshes have no feasible design: a typed workflow
    // error and exit 2, not a panic — single- and multi-device alike
    for (mesh, devices) in [("1x1", "1"), ("1x300", "1"), ("1x1", "2"), ("1x300", "2")] {
        let out = sfstencil()
            .args(["profile", "--app", "poisson", "--mesh", mesh, "--iters", "3"])
            .args(["--devices", devices])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{mesh} d={devices} must fail cleanly");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("no feasible FPGA design"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn sharded_profile_prints_devices_and_exchange() {
    let out = sfstencil()
        .args(["profile", "--app", "poisson", "--mesh", "64x300", "--iters", "5"])
        .args(["--devices", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("devices            : 2"), "{stdout}");
    assert!(stdout.contains("exchange"), "stall table lists exchange: {stdout}");
    assert!(stdout.contains("behavioral"), "small sharded meshes still stream: {stdout}");
}

#[test]
fn dse_devices_sweep_lists_device_counts() {
    let out = sfstencil()
        .args(["dse", "--app", "poisson", "--mesh", "400x400", "--iters", "2000"])
        .args(["--devices", "4", "--top", "8", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc: Value = serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let cands = doc.as_array().unwrap();
    assert!(!cands.is_empty());
    let devs: Vec<u64> =
        cands.iter().map(|c| c.get("devices").and_then(Value::as_u64).unwrap()).collect();
    assert!(devs.iter().any(|&d| d > 1), "sweep must surface sharded candidates: {devs:?}");
    assert!(devs.iter().all(|&d| [1, 2, 4].contains(&d)), "{devs:?}");
    // the sweep stops doubling before it overflows: the largest device
    // count ranks exactly like any count past the mesh's 400 rows
    let ranking = |devices: &str| {
        let out = sfstencil()
            .args(["dse", "--app", "poisson", "--mesh", "400x400", "--iters", "2000"])
            .args(["--devices", devices, "--json"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    assert_eq!(ranking("18446744073709551615"), ranking("256"));
}

#[test]
fn profile_output_is_identical_across_exec_engines() {
    let run = |engine: &str| {
        let out = sfstencil()
            .args([
                "profile", "--app", "poisson", "--mesh", "64x32", "--batch", "4", "--iters", "40",
                "--exec", engine, "--json",
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    assert_eq!(run("fast"), run("scalar"), "profile JSON must not depend on --exec");
}

#[test]
fn check_paper_designs_are_clean() {
    for (app, mesh, v, p) in [
        ("poisson", "400x400", "8", "60"),
        ("jacobi", "300x300x300", "8", "29"),
        ("rtm", "64x64x64", "1", "3"),
    ] {
        let out = sfstencil()
            .args(["check", "--app", app, "--mesh", mesh, "--v", v, "--p", p])
            .output()
            .unwrap();
        assert!(out.status.success(), "{app}: {}", String::from_utf8_lossy(&out.stdout));
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("ok: no design-rule violations"), "{app}: {stdout}");
    }
}

#[test]
fn check_without_v_p_verifies_the_dse_selection() {
    let out =
        sfstencil().args(["check", "--app", "poisson", "--mesh", "400x400"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("DSE-selected"), "{stdout}");
    assert!(stdout.contains("ok: no design-rule violations"), "{stdout}");
}

#[test]
fn check_seeded_violations_exit_1_with_the_right_rule() {
    for (p, extra, rule) in [
        ("60", Some(["--fifo-depth", "4"]), "SFC-F01"),
        ("60", Some(["--window-units", "100"]), "SFC-W01"),
        ("500", None, "SFC-S01"),
    ] {
        let mut args = vec!["check", "--app", "poisson", "--mesh", "400x400", "--v", "8", "--p", p];
        if let Some(extra) = extra {
            args.extend(extra.iter());
        }
        let out = sfstencil().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains(rule), "{args:?}: {stdout}");
        assert!(stdout.contains("error"), "{stdout}");
    }
}

#[test]
fn absurd_unroll_is_rejected_not_aborted() {
    // p·V·G_dsp and the window, FIFO and fabric products saturate, and the
    // floorplan knows a chain's fit before placing it: each design is an
    // SFC-S01 exit 1, never an overflow panic, an aborted allocation or a
    // DSP product wrapped below the budget
    for (v, p) in
        [("8", "4611686018427387904"), ("4294967296", "4294967296"), ("2305843009213693952", "8")]
    {
        let args = ["check", "--app", "poisson", "--mesh", "400x400", "--v", v, "--p", p];
        let out = sfstencil().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("SFC-S01"), "{args:?}: {stdout}");
    }
    let out = sfstencil()
        .args(["report", "--app", "poisson", "--mesh", "400x400", "--v", "1", "--p"])
        .arg("9223372036854775808")
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("synthesis rejected the configuration"), "{stdout}");
}

#[test]
fn check_tile_halo_violation_exits_1() {
    let out = sfstencil()
        .args([
            "check",
            "--app",
            "poisson",
            "--mesh",
            "15000x15000",
            "--v",
            "8",
            "--p",
            "60",
            "--tile",
            "50",
            "--mem",
            "ddr4",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("SFC-T01"), "{stdout}");
}

#[test]
fn report_honours_tile_batch_and_mem() {
    let report = |args: &[&str]| {
        let out = sfstencil().arg("report").args(["--app", "poisson"]).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "report {args:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    // the paper's DDR4 tiled design, which `check` passes, synthesizes
    let tiled = report(&[
        "--mesh",
        "15000x15000",
        "--v",
        "8",
        "--p",
        "60",
        "--tile",
        "4096",
        "--mem",
        "ddr4",
    ]);
    assert!(tiled.contains("Tiled1D { tile_m: 4096 }"), "{tiled}");
    assert!(!tiled.contains("synthesis rejected"), "{tiled}");
    // --batch reports the batched design
    let batched = report(&["--mesh", "200x100", "--v", "8", "--p", "60", "--batch", "4", "--json"]);
    let mode: Value = serde_json::from_str(&batched).unwrap();
    let b = mode.get("mode").and_then(|m| m.get("Batched")).and_then(|m| m.get("b"));
    assert_eq!(b.and_then(Value::as_u64), Some(4), "{batched}");
    // --mem ddr4 binds one DDR4 bank per direction, which cannot feed V=32
    let wide = ["--mesh", "400x400", "--v", "32", "--p", "10"];
    assert!(!report(&wide).contains("synthesis rejected"));
    let ddr4 = report(&[&wide[..], &["--mem", "ddr4"]].concat());
    assert!(ddr4.contains("synthesis rejected") && ddr4.contains("memory has 1"), "{ddr4}");
}

/// Golden file location anchored to the crate, not the invocation CWD, so
/// the test passes from any working directory (workspace root, crate dir,
/// CI). Regenerate with `SF_UPDATE_GOLDEN=1 cargo test -p sf-bench`.
const CHECK_GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/check_poisson_fifo4.json");

#[test]
fn check_json_matches_golden() {
    let out = sfstencil()
        .args([
            "check",
            "--app",
            "poisson",
            "--mesh",
            "400x400",
            "--v",
            "8",
            "--p",
            "60",
            "--fifo-depth",
            "4",
            "--json",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "seeded deadlock must exit 1");
    let got = String::from_utf8(out.stdout).unwrap();
    if std::env::var_os("SF_UPDATE_GOLDEN").is_some() {
        std::fs::write(CHECK_GOLDEN_PATH, &got).unwrap();
    }
    let golden = std::fs::read_to_string(CHECK_GOLDEN_PATH).unwrap();
    assert_eq!(got.trim(), golden.trim(), "check --json output drifted from the golden file");
    // and the document is structurally sound
    let doc: Value = serde_json::from_str(&got).unwrap();
    let diags = doc.get("diagnostics").and_then(Value::as_array).unwrap();
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].get("rule").and_then(Value::as_str), Some("FifoDeadlock"));
    assert_eq!(diags[0].get("severity").and_then(Value::as_str), Some("Error"));
}

#[test]
fn check_explain_prints_the_catalogue_entry() {
    for code in ["SFC-K05", "sfc-k05"] {
        let out = sfstencil().args(["check", "--explain", code]).output().unwrap();
        assert!(out.status.success(), "{code}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("SFC-K05"), "{stdout}");
        assert!(stdout.contains("[error]"), "{stdout}");
        assert!(stdout.contains("von Neumann"), "{stdout}");
        assert!(stdout.contains("fix"), "{stdout}");
    }
    // every catalogued rule must explain itself (no --app/--mesh needed)
    for code in ["SFC-P01", "SFC-F01", "SFC-K01", "SFC-K02", "SFC-K03", "SFC-K04"] {
        let out = sfstencil().args(["check", "--explain", code]).output().unwrap();
        assert!(out.status.success(), "{code} must be explainable");
        assert!(String::from_utf8(out.stdout).unwrap().contains(code));
    }
}

#[test]
fn check_explain_unknown_rule_exits_2_with_suggestions() {
    let out = sfstencil().args(["check", "--explain", "SFC-ZZZ"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown rule 'SFC-ZZZ'"), "{stderr}");
    assert!(stderr.contains("known rules:"), "{stderr}");
    assert!(stderr.contains("SFC-P01") && stderr.contains("SFC-K05"), "{stderr}");
    // --explain with no value is a usage error, not a crash
    let out = sfstencil().args(["check", "--explain"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("--explain needs a rule code"));
}

#[test]
fn check_assume_order_seeds_a_footprint_violation() {
    let out = sfstencil()
        .args([
            "check",
            "--app",
            "poisson",
            "--mesh",
            "400x400",
            "--v",
            "8",
            "--p",
            "60",
            "--assume-order",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("SFC-K01"), "{stdout}");
    assert!(stdout.contains("radius 1"), "{stdout}");
}

#[test]
fn check_assume_gdsp_seeds_an_opcount_violation() {
    let out = sfstencil()
        .args([
            "check",
            "--app",
            "jacobi",
            "--mesh",
            "300x300x300",
            "--v",
            "8",
            "--p",
            "29",
            "--assume-gdsp",
            "50",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("SFC-K02"), "{stdout}");
    assert!(stdout.contains("G_dsp 33"), "probed truth must be named: {stdout}");
    assert!(stdout.contains("G_dsp 50"), "drifted declaration must be named: {stdout}");
}

#[test]
fn check_rejects_malformed_assume_flags() {
    for (flag, val) in [("--assume-order", "-1"), ("--assume-gdsp", "1"), ("--assume-gdsp", "x")] {
        let out = sfstencil()
            .args(["check", "--app", "poisson", "--mesh", "64x64", "--v", "8", "--p", "4"])
            .args([flag, val])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}={val} must be rejected");
        assert!(String::from_utf8(out.stderr).unwrap().contains(flag));
    }
}

/// Golden snapshot of `check --json` with a kernel-analysis (SFC-K02)
/// diagnostic, proving the K-rules serialize through the same report as the
/// design rules. Regenerate with `SF_UPDATE_GOLDEN=1 cargo test -p sf-bench`.
const CHECK_K_GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/check_jacobi_gdsp34.json");

#[test]
fn check_json_with_kernel_rules_matches_golden() {
    // G_dsp 34 vs the probed 33: outside the 2 % model tolerance (fires
    // SFC-K02) but inside the device's DSP budget, so the kernel rule is
    // the only diagnostic in the report
    let out = sfstencil()
        .args([
            "check",
            "--app",
            "jacobi",
            "--mesh",
            "300x300x300",
            "--v",
            "8",
            "--p",
            "29",
            "--assume-gdsp",
            "34",
            "--json",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "seeded op-count drift must exit 1");
    let got = String::from_utf8(out.stdout).unwrap();
    if std::env::var_os("SF_UPDATE_GOLDEN").is_some() {
        std::fs::write(CHECK_K_GOLDEN_PATH, &got).unwrap();
    }
    let golden = std::fs::read_to_string(CHECK_K_GOLDEN_PATH).unwrap();
    assert_eq!(got.trim(), golden.trim(), "check --json output drifted from the golden file");
    let doc: Value = serde_json::from_str(&got).unwrap();
    let diags = doc.get("diagnostics").and_then(Value::as_array).unwrap();
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].get("rule").and_then(Value::as_str), Some("KernelOpCount"));
    assert_eq!(diags[0].get("severity").and_then(Value::as_str), Some("Error"));
    assert_eq!(diags[0].get("location").and_then(Value::as_str), Some("kernel"));
}

#[test]
fn faults_preflight_reports_before_the_campaign() {
    let out = sfstencil()
        .args(["faults", "--app", "poisson2d", "--rate", "1000000", "--trials", "1"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("preflight poisson2d: ok"),
        "pre-flight verdict must precede the campaign: {stderr}"
    );
}

#[test]
fn faults_campaign_accounts_for_every_injection() {
    let out = sfstencil()
        .args(["faults", "--app", "poisson2d", "--seed", "42", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc: Value = serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(doc.get("campaign_seed").and_then(Value::as_u64), Some(42));
    let s = doc.get("summary").expect("summary block");
    let injected = s.get("injected").and_then(Value::as_u64).unwrap();
    assert!(injected > 0, "the campaign must inject faults");
    assert_eq!(
        s.get("detected_or_recovered").and_then(Value::as_u64),
        Some(injected),
        "every injected fault detected or recovered"
    );
    assert_eq!(s.get("silent_wrong").and_then(Value::as_u64), Some(0));
    assert_eq!(s.get("recovery_failed").and_then(Value::as_u64), Some(0));
}

#[test]
fn faults_campaign_is_reproducible_per_seed() {
    let run = || {
        sfstencil()
            .args([
                "faults", "--app", "jacobi3d", "--seed", "7", "--rate", "1000000", "--trials", "1",
                "--json",
            ])
            .output()
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert!(a.status.success() && b.status.success());
    assert_eq!(a.stdout, b.stdout, "same seed must reproduce byte-identical output");
    let other = sfstencil()
        .args([
            "faults", "--app", "jacobi3d", "--seed", "8", "--rate", "1000000", "--trials", "1",
            "--json",
        ])
        .output()
        .unwrap();
    assert_ne!(a.stdout, other.stdout, "a different seed changes the schedule");
}

#[test]
fn faults_jobs_output_is_byte_identical_to_serial() {
    let run = |jobs: &str| {
        sfstencil()
            .args([
                "faults",
                "--app",
                "poisson2d",
                "--seed",
                "42",
                "--rate",
                "1000000",
                "--trials",
                "1",
                "--jobs",
                jobs,
                "--json",
            ])
            .output()
            .unwrap()
    };
    let serial = run("1");
    assert!(serial.status.success(), "{}", String::from_utf8_lossy(&serial.stderr));
    let par = run("3");
    assert!(par.status.success());
    assert_eq!(serial.stdout, par.stdout, "--jobs must not change the campaign report");
}

#[test]
fn profile_jobs_trace_is_byte_identical_to_serial() {
    let run = |jobs: &str| {
        let out = sfstencil()
            .args([
                "profile", "--app", "poisson", "--mesh", "64x32", "--batch", "6", "--iters", "50",
                "--jobs", jobs, "--json",
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    // The `"parallel"` provenance block exists precisely to record the
    // worker count, so it is stripped before comparing; everything else
    // must be byte-identical.
    let strip_parallel = |bytes: Vec<u8>| -> (String, Option<u64>) {
        let s = String::from_utf8(bytes).unwrap();
        let Value::Object(mut fields) = serde_json::parse_value(&s).unwrap() else {
            panic!("metrics must be a JSON object")
        };
        let jobs = fields
            .iter()
            .find(|(k, _)| k == "parallel")
            .and_then(|(_, v)| v.get("jobs"))
            .and_then(Value::as_u64);
        fields.retain(|(k, _)| k != "parallel");
        (serde_json::to_string(&Value::Object(fields)).unwrap(), jobs)
    };
    let (serial, serial_jobs) = strip_parallel(run("1"));
    let (par, par_jobs) = strip_parallel(run("4"));
    assert_eq!(serial, par, "--jobs must not change the profile metrics");
    assert_eq!(serial_jobs, Some(1));
    assert_eq!(par_jobs, Some(4), "provenance block must record the actual worker count");
}

#[test]
fn dse_jobs_ranking_is_identical_to_serial() {
    let run = |jobs: &str| {
        let out = sfstencil()
            .args([
                "dse", "--app", "poisson", "--mesh", "96x96", "--iters", "100", "--jobs", jobs,
                "--json",
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    assert_eq!(run("1"), run("3"), "--jobs must not change the DSE ranking");
}

#[test]
fn faults_rejects_bad_arguments() {
    for args in [
        vec!["faults", "--app", "fft"],
        vec!["faults", "--seed", "banana"],
        vec!["faults", "--rate", "0"],
        vec!["faults", "--trials", "0"],
        vec!["faults", "--jobs", "0"],
        vec!["faults", "--recovery", "prayer"],
        vec!["faults", "--kind", "cosmic-ray"],
    ] {
        let out = sfstencil().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?} must be rejected");
        assert!(String::from_utf8(out.stderr).unwrap().contains("usage:"));
    }
}

#[test]
fn faults_rejects_zero_checkpoint_interval() {
    let out = sfstencil()
        .args(["faults", "--recovery", "rollback", "--checkpoint-every", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("--checkpoint-every must be a positive pass count"),
        "error must name the flag and constraint: {stderr}"
    );
}

#[test]
fn faults_rejects_negative_and_overflowing_retry_counts() {
    for bad in ["-1", "4294967296", "lots"] {
        let out = sfstencil()
            .args(["faults", "--recovery", "rollback", "--max-retries", bad])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--max-retries {bad} must be rejected");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("--max-retries must be an integer in 0..=4294967295"),
            "error must state the accepted range: {stderr}"
        );
    }
}

#[test]
fn faults_rollback_campaign_recovers_in_run() {
    // The CI recovery-smoke shape: SDC + FIFO-corruption kinds under
    // `--recovery rollback --checkpoint-every 4` on one app, JSON out.
    let out = sfstencil()
        .args([
            "faults",
            "--app",
            "poisson2d",
            "--seed",
            "42",
            "--rate",
            "1000000",
            "--trials",
            "1",
            "--kind",
            "bitflip",
            "--kind",
            "fifo-corrupt",
            "--recovery",
            "rollback",
            "--checkpoint-every",
            "4",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc: Value = serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let s = doc.get("summary").expect("summary block");
    let injected = s.get("injected").and_then(Value::as_u64).unwrap();
    assert!(injected > 0, "saturation rate must inject");
    assert_eq!(
        s.get("rollback_recovered").and_then(Value::as_u64),
        Some(injected),
        "every injected SDC fault must recover in-run via rollback"
    );
    assert!(s.get("sdc_detected").and_then(Value::as_u64).unwrap() > 0);
    for t in doc.get("trials").and_then(Value::as_array).unwrap() {
        assert_eq!(t.get("recovery").and_then(Value::as_str), Some("Rollback"), "{t:?}");
    }
}

#[test]
fn check_dse_path_honours_mem() {
    // without --v/--p the DSE picks the design, over the requested memory
    let design_line = |extra: &[&str]| {
        let args = [&["check", "--app", "poisson", "--mesh", "400x400"][..], extra].concat();
        let out = sfstencil().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        stdout.lines().next().unwrap_or_default().to_string()
    };
    let ddr4 = design_line(&["--mem", "ddr4"]);
    assert!(ddr4.contains("DSE-selected") && ddr4.ends_with("Ddr4"), "{ddr4}");
    let hbm = design_line(&[]);
    assert!(hbm.contains("DSE-selected") && hbm.ends_with("Hbm"), "{hbm}");
}

#[test]
fn check_tile_without_v_and_p_exits_2_and_names_the_flag() {
    let out = sfstencil()
        .args(["check", "--app", "poisson", "--mesh", "400x400", "--tile", "64"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--tile needs --v and --p"), "{stderr}");
    assert!(out.stdout.is_empty(), "no design may be checked");
}

#[test]
fn help_lists_the_flags_the_command_reads() {
    let help = |cmd: &str| {
        let out = sfstencil().args([cmd, "--help"]).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{cmd}");
        String::from_utf8(out.stdout).unwrap()
    };
    let profile = help("profile");
    for flag in ["--v ", "--p ", "--mem ", "--tile ", "--top ", "explain"] {
        assert!(!profile.contains(flag), "profile --help offers {flag}: {profile}");
    }
    for flag in ["--app ", "--mesh ", "--exec ", "--trace-out ", "--json"] {
        assert!(profile.contains(flag), "profile --help lacks {flag}: {profile}");
    }
    let explain = help("explain");
    assert!(!explain.contains("--mem") && !explain.contains("--json"), "{explain}");
    let check = help("check");
    for flag in ["--v ", "--mem ", "--tile ", "--fifo-depth ", "--explain SFC-XXX"] {
        assert!(check.contains(flag), "check --help lacks {flag}: {check}");
    }
    let faults = help("faults");
    assert!(faults.contains("[--rate PPM]...") && !faults.contains("--mesh"), "{faults}");
}

#[test]
fn output_into_a_closed_pipe_exits_with_the_commands_status() {
    for args in [
        &["feasibility", "--app", "poisson", "--mesh", "400x400"][..],
        &["feasibility", "--app", "poisson", "--mesh", "400x400", "--json"],
        &["profile", "--help"],
        &["--help"],
        &["check", "--explain", "SFC-K05"],
    ] {
        // the reader is gone before the command writes anything
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = sfstencil().args(args).stdout(writer).output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
