//! Front-end pins: the printer's output over every corpus file, and a
//! canonical dump of each app's `ProgramIndex`, must hash to the values
//! recorded from the tree-of-boxes front end this one replaced. The
//! printer pin shows every file still parses to the same tree; the index
//! pin shows linking interns every name to the same symbol and lowers
//! every body to the same IR (rendered as the boxed IR's `Debug` was).
//!
//! Analysis pins: per app, the call graph as its public API renders it,
//! every method summary, and the `wasabi lint --cross-check` output must
//! hash to the values recorded from the boxed IR's analyses, so a change
//! to the IR or to the walks over it moves no call target, summary or
//! report byte.
//!
//! The corpus is the eight paper apps with the amplification and policy
//! seeds. The small scale runs in the default suite; the paper scale
//! (20,747 files) is `#[ignore]`d here and run in release by
//! `cargo xtask frontend-gate`.
//!
//! Each scale also stays on its side of the link's validation gate: a
//! project validates on a worker beside the index build only from
//! `2 * NODES_PER_WORKER` statements and expressions. Every small app is
//! below it, so repair-small's relinks start no thread, and every paper
//! app is above it, so lint-paper and test-paper validate beside the
//! build. The benchmark's apps are these, or these less the seeds (about
//! 420 nodes).

mod common;

use common::ir_debug;
use std::fmt::Write as _;
use wasabi::analysis::callgraph::CallGraph;
use wasabi::analysis::checkers::LintOptions;
use wasabi::analysis::diag::render_json;
use wasabi::analysis::summaries::Summaries;
use wasabi::core::lint::{cross_check, lint_with_overlap};
use wasabi::corpus::spec::{paper_apps, Scale};
use wasabi::corpus::synth::{append_policy_seeds, generate_app_with_amp};
use wasabi::lang::printer::print_items;
use wasabi::lang::project::{Project, SourceFile, NODES_PER_WORKER};
use wasabi::llm::simulated::SimulatedLlm;

/// FNV-1a 64 over everything written to it.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What each app's four digests cover, in order.
const APP_DIGESTS: [&str; 4] = ["index", "call graph", "summaries", "lint"];

/// `(files, printer digest, [(app, digests)])` at `scale`.
fn digests(scale: Scale) -> (usize, u64, Vec<(&'static str, [u64; 4])>) {
    let mut printer = Fnv(FNV_OFFSET);
    let mut files = 0;
    let mut apps = Vec::new();
    for spec in paper_apps() {
        let mut app = generate_app_with_amp(&spec, scale);
        append_policy_seeds(&mut app);
        let mut parsed = Vec::new();
        for (path, source) in &app.files {
            let file =
                SourceFile::parse(path.as_str(), source.as_str()).unwrap_or_else(|e| panic!("{e}"));
            printer.write_str(&print_items(&file)).expect("hashing");
            parsed.push(std::sync::Arc::new(file));
            files += 1;
        }
        let nodes: usize = parsed.iter().map(|f| f.stmt_count() + f.expr_count()).sum();
        let gate = 2 * NODES_PER_WORKER;
        match scale {
            Scale::Small => assert!(nodes < gate, "{}: {nodes} nodes validate beside", spec.short),
            Scale::Paper => assert!(nodes >= gate, "{}: {nodes} nodes validate after", spec.short),
            _ => {}
        }
        let project = Project::link(spec.name, parsed).expect("links");
        let mut dump = Fnv(FNV_OFFSET);
        dump.write_str(&ir_debug::dump(&project.index)).expect("hashing");

        // The call graph: each call's site, method and sorted targets, per
        // method in walk order, then the callee lists.
        let cg = CallGraph::build(&project);
        let mut graph = Fnv(FNV_OFFSET);
        for m in 0..cg.len() as u32 {
            for c in cg.calls(m) {
                let (file, call, method) = (c.site.file.0, c.site.call.0, c.method.0);
                writeln!(graph, "{m} {file}:{call} {method} {:?}", c.targets).expect("hashing");
            }
        }
        for m in 0..cg.len() as u32 {
            writeln!(graph, "{m} -> {:?}", cg.callees(m)).expect("hashing");
        }

        // `wasabi lint --cross-check`, which seeds its simulated LLM with 0.
        let report = lint_with_overlap(
            &project,
            &mut SimulatedLlm::with_seed(0),
            &LintOptions::default(),
        );
        let cross = cross_check(&report.lint, &report.sweep);
        let mut lint = Fnv(FNV_OFFSET);
        lint.write_str(&render_json(&report.lint.diagnostics))
            .and_then(|()| lint.write_str(&cross.render_text()))
            .expect("hashing");

        // The summaries with the lint's own retry-loop bounds.
        let mut local_retry: Vec<_> = report.lint.loops.iter().map(|f| (f.midx, f.bound)).collect();
        local_retry.sort_by_key(|&(m, _)| m);
        let mut summaries = Fnv(FNV_OFFSET);
        for (m, s) in Summaries::compute(&project, &cg, &local_retry)
            .methods
            .iter()
            .enumerate()
        {
            let throws: Vec<u32> = s.may_throw.iter().map(|e| e.0).collect();
            writeln!(
                summaries,
                "{m} throws={throws:?} sleep={} loop={} retry={} attempts={:?} cmp={}",
                s.may_sleep, s.has_retry_loop, s.may_retry, s.attempts, s.has_comparison
            )
            .expect("hashing");
        }
        apps.push((spec.short, [dump.0, graph.0, summaries.0, lint.0]));
    }
    (files, printer.0, apps)
}

/// `(app, index, call graph, summaries, lint)` digests.
type Pins<'a> = [(&'a str, u64, u64, u64, u64); 8];

fn check(scale: Scale, files: usize, printer: u64, pins: Pins<'_>) {
    let (got_files, got_printer, got_apps) = digests(scale);
    assert_eq!(got_files, files, "{scale:?}: file count");
    assert_eq!(
        format!("{got_printer:016x}"),
        format!("{printer:016x}"),
        "{scale:?}: printer digest"
    );
    let render = |app: &str, digests: [u64; 4]| -> Vec<String> {
        APP_DIGESTS
            .iter()
            .zip(digests)
            .map(|(which, d)| format!("{app} {which} {d:016x}"))
            .collect()
    };
    let got: Vec<String> = got_apps
        .iter()
        .flat_map(|&(app, digests)| render(app, digests))
        .collect();
    let want: Vec<String> = pins
        .iter()
        .flat_map(|&(app, index, graph, summaries, lint)| {
            render(app, [index, graph, summaries, lint])
        })
        .collect();
    assert_eq!(got, want, "{scale:?}: per-app digests");
}

#[test]
fn small_scale_front_end_pins_hold() {
    check(
        Scale::Small,
        2088,
        0x2235_2508_a4fe_86f0,
        [
            ("HA", 0xe776_a577_4aa0_18a0, 0x40be_6b91_6dd6_8d45, 0x425c_d7ea_08e3_a148, 0x4b7f_d8d1_862f_b9ea),
            ("HD", 0x9322_4a5d_09c2_963d, 0x0f9d_3bea_de4b_b868, 0x2a8c_6a86_42f5_cc5f, 0x6ae2_716e_3802_5eef),
            ("MA", 0x92be_7aaa_5130_5b66, 0xfd85_dda8_9d65_d033, 0xbe85_a86f_4404_2f44, 0x4db0_e274_f86c_aa4b),
            ("YA", 0x1ac4_2c6a_2615_ebb7, 0x4f62_f8e7_84b9_2aba, 0xaae0_525f_5693_99e3, 0x26a2_2f28_e760_83f5),
            ("HB", 0xcecc_478d_ea5a_92ab, 0xe3b6_dd71_925d_789a, 0x9c99_9282_9d03_babb, 0x30ce_fd75_b1a6_be91),
            ("HI", 0x5112_9fde_3d4d_98fd, 0x8469_1fde_e29e_76f8, 0x8b57_f04d_0a56_fd18, 0x5feb_b089_e2d9_aec0),
            ("CA", 0x2c55_8207_6d55_2948, 0xb13f_0675_0a74_d421, 0x8d26_04d0_dc40_258e, 0xfce7_4673_457a_f9e5),
            ("EL", 0xb4fd_6196_31af_5985, 0x4ed6_7877_725d_afe3, 0xd1aa_cb97_e5d7_b6e7, 0x1aa5_d346_4d10_0fd6),
        ],
    );
}

#[test]
#[ignore = "paper scale; run in release by `cargo xtask frontend-gate`"]
fn paper_scale_front_end_pins_hold() {
    check(
        Scale::Paper,
        20747,
        0x6ab4_2ae9_5d08_e32c,
        [
            ("HA", 0x2593_4273_d6cc_0758, 0x3739_34f5_43bb_4e71, 0x8ca9_7710_0a5a_ef23, 0x4b7f_d8d1_862f_b9ea),
            ("HD", 0xc0dd_56f4_2ebe_0da4, 0x979b_cbf0_c51b_55c9, 0xb3f6_7f33_832c_996e, 0x6ae2_716e_3802_5eef),
            ("MA", 0x6e47_bb5f_6255_d3a3, 0x115d_7217_1c27_aace, 0x2ba4_d1a4_b8bc_4fe2, 0x4db0_e274_f86c_aa4b),
            ("YA", 0x9cfb_97c2_520f_82f4, 0xf586_db95_7471_a7b6, 0x64de_cd85_8b22_f9c8, 0x26a2_2f28_e760_83f5),
            ("HB", 0xbf99_826f_da7e_365b, 0x67bd_afa3_f2ab_9f00, 0xc319_a23b_d800_bd6d, 0x30ce_fd75_b1a6_be91),
            ("HI", 0xf813_7ee7_69fb_4a99, 0x735c_3f42_ee03_082e, 0x4458_4cf4_41c7_a108, 0x5feb_b089_e2d9_aec0),
            ("CA", 0x9a66_f5cf_c133_4cdb, 0xaf86_8868_5712_2a3e, 0x6877_70b3_be20_02b8, 0xfce7_4673_457a_f9e5),
            ("EL", 0x2da9_b785_b5a3_46f9, 0xa5eb_bd48_2806_a2fd, 0x839e_aafa_390b_c504, 0x1aa5_d346_4d10_0fd6),
        ],
    );
}
