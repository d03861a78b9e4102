//! Front-end pins: the printer's output over every corpus file, and a
//! canonical dump of each app's `ProgramIndex`, must hash to the values
//! recorded from the tree-of-boxes front end this one replaced. The
//! printer pin shows every file still parses to the same tree; the index
//! pin shows linking interns every name to the same symbol and lowers
//! every body to the same IR.
//!
//! The corpus is the eight paper apps with the amplification and policy
//! seeds. The small scale runs in the default suite; the paper scale
//! (20,747 files) is `#[ignore]`d here and run in release by
//! `cargo xtask frontend-gate`.

use std::fmt::Write as _;
use wasabi::corpus::spec::{paper_apps, Scale};
use wasabi::corpus::synth::{append_policy_seeds, generate_app_with_amp};
use wasabi::lang::intern::Symbol;
use wasabi::lang::printer::print_items;
use wasabi::lang::project::{Project, SourceFile};

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

/// `(files, printer digest, [(app, index digest)])` at `scale`.
fn digests(scale: Scale) -> (usize, u64, Vec<(&'static str, u64)>) {
    let mut printer = Fnv(FNV_OFFSET);
    let mut files = 0;
    let mut indexes = Vec::new();
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
        let project = Project::link(spec.name, parsed).expect("links");
        // Interner strings in symbol order, then the lowered program; the
        // interner's hash map is left out (its Debug order is random).
        let index = &project.index;
        let mut dump = Fnv(FNV_OFFSET);
        for i in 0..index.interner.len() {
            writeln!(dump, "{}", index.interner.resolve(Symbol(i as u32))).expect("hashing");
        }
        write!(
            dump,
            "{:?}{:?}{:?}{:?}",
            index.classes, index.methods, index.exceptions, index.configs
        )
        .expect("hashing");
        indexes.push((spec.short, dump.0));
    }
    (files, printer.0, indexes)
}

fn check(scale: Scale, files: usize, printer: u64, indexes: [(&str, u64); 8]) {
    let (got_files, got_printer, got_indexes) = digests(scale);
    assert_eq!(got_files, files, "{scale:?}: file count");
    assert_eq!(
        format!("{got_printer:016x}"),
        format!("{printer:016x}"),
        "{scale:?}: printer digest"
    );
    let render = |pins: &[(&str, u64)]| -> Vec<String> {
        pins.iter()
            .map(|(app, d)| format!("{app} {d:016x}"))
            .collect()
    };
    assert_eq!(
        render(&got_indexes),
        render(&indexes),
        "{scale:?}: index digests"
    );
}

#[test]
fn small_scale_front_end_pins_hold() {
    check(
        Scale::Small,
        2088,
        0x2235_2508_a4fe_86f0,
        [
            ("HA", 0xe776_a577_4aa0_18a0),
            ("HD", 0x9322_4a5d_09c2_963d),
            ("MA", 0x92be_7aaa_5130_5b66),
            ("YA", 0x1ac4_2c6a_2615_ebb7),
            ("HB", 0xcecc_478d_ea5a_92ab),
            ("HI", 0x5112_9fde_3d4d_98fd),
            ("CA", 0x2c55_8207_6d55_2948),
            ("EL", 0xb4fd_6196_31af_5985),
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
            ("HA", 0x2593_4273_d6cc_0758),
            ("HD", 0xc0dd_56f4_2ebe_0da4),
            ("MA", 0x6e47_bb5f_6255_d3a3),
            ("YA", 0x9cfb_97c2_520f_82f4),
            ("HB", 0xbf99_826f_da7e_365b),
            ("HI", 0xf813_7ee7_69fb_4a99),
            ("CA", 0x9a66_f5cf_c133_4cdb),
            ("EL", 0x2da9_b785_b5a3_46f9),
        ],
    );
}
