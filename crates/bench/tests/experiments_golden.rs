//! Every experiment row against its committed capture, byte for byte.
//!
//! `crates/bench/expected/<name>.txt` is what the row printed when it was
//! last reviewed; the simulator is deterministic across machines and
//! processes, so any difference is a change in simulated behaviour (or in
//! the report's wording) that must be looked at and, if intended, committed
//! by regenerating the file: `experiments NAME > crates/bench/expected/NAME.txt`
//! (or `scripts/run_all_experiments.sh crates/bench/expected` for all).

use extmem_bench::experiments::EXPERIMENTS;
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};

const GOLDEN: [(&str, &str); 18] = [
    (
        "e1_pktbuf_rates",
        include_str!("../expected/e1_pktbuf_rates.txt"),
    ),
    (
        "e2_lookup_latency",
        include_str!("../expected/e2_lookup_latency.txt"),
    ),
    (
        "e3_statestore_bw",
        include_str!("../expected/e3_statestore_bw.txt"),
    ),
    ("e4_incast", include_str!("../expected/e4_incast.txt")),
    ("e5_overhead", include_str!("../expected/e5_overhead.txt")),
    ("e6_capacity", include_str!("../expected/e6_capacity.txt")),
    (
        "a1_cache_ablation",
        include_str!("../expected/a1_cache_ablation.txt"),
    ),
    (
        "a2_atomics_ablation",
        include_str!("../expected/a2_atomics_ablation.txt"),
    ),
    (
        "a3_threshold_ablation",
        include_str!("../expected/a3_threshold_ablation.txt"),
    ),
    (
        "a4_recirculation",
        include_str!("../expected/a4_recirculation.txt"),
    ),
    (
        "a5_rdma_priority",
        include_str!("../expected/a5_rdma_priority.txt"),
    ),
    ("a6_kvcache", include_str!("../expected/a6_kvcache.txt")),
    (
        "a7_trace_capture",
        include_str!("../expected/a7_trace_capture.txt"),
    ),
    (
        "a8_slowpath_vs_remote",
        include_str!("../expected/a8_slowpath_vs_remote.txt"),
    ),
    (
        "a9_loss_sweep",
        include_str!("../expected/a9_loss_sweep.txt"),
    ),
    ("a10_failover", include_str!("../expected/a10_failover.txt")),
    ("a12_capacity", include_str!("../expected/a12_capacity.txt")),
    (
        "a13_remote_ops",
        include_str!("../expected/a13_remote_ops.txt"),
    ),
];

/// The two rows that are 26 of the full run's 28 release-mode seconds; an
/// unoptimized build skips them so tier-1 stays fast. `scripts/ci.sh` runs
/// all eighteen under the release profile.
const SLOW: [&str; 2] = ["a12_capacity", "e1_pktbuf_rates"];

#[test]
fn every_row_matches_its_golden_file() {
    assert_eq!(
        EXPERIMENTS.map(|(name, _)| name),
        GOLDEN.map(|(name, _)| name),
        "one golden file per row, in table order"
    );
    for ((name, row), (_, golden)) in EXPERIMENTS.iter().zip(GOLDEN) {
        if cfg!(debug_assertions) && SLOW.contains(name) {
            continue;
        }
        let mut out = String::new();
        row(&mut out);
        assert!(
            out == golden,
            "{name} no longer prints crates/bench/expected/{name}.txt; it printed:\n{out}"
        );
    }
}

#[test]
fn row_names_are_unique() {
    for (i, (name, _)) in EXPERIMENTS.iter().enumerate() {
        assert!(
            EXPERIMENTS[..i].iter().all(|(earlier, _)| earlier != name),
            "{name} is in the table twice"
        );
    }
}

/// The row an experiment id ("E1", "A13") names: the one whose name starts
/// with the lower-cased id and an underscore.
fn row_for(id: &str) -> Option<&'static str> {
    let prefix = format!("{}_", id.to_lowercase());
    EXPERIMENTS
        .iter()
        .map(|(name, _)| *name)
        .find(|name| name.starts_with(&prefix))
}

/// `E<n>` / `A<n>` at the start of `text`, if it starts with one.
fn leading_id(text: &str) -> Option<&str> {
    let digits = text
        .strip_prefix(['E', 'A'])?
        .chars()
        .take_while(char::is_ascii_digit)
        .count();
    (digits > 0).then(|| &text[..1 + digits])
}

/// DESIGN.md §5's index table: one `| E1 | … | Modules | Row |` line per
/// experiment, as `(id, line)`.
fn design_index() -> Vec<(&'static str, &'static str)> {
    include_str!("../../../DESIGN.md")
        .split("## 5. Experiment index")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("DESIGN.md has a §5")
        .lines()
        .filter_map(|line| Some((leading_id(line.strip_prefix("| ")?)?, line)))
        .collect()
}

#[test]
fn every_documented_experiment_names_a_row() {
    let indexed: Vec<&str> = design_index().into_iter().map(|(id, _)| id).collect();
    assert_eq!(indexed.len(), EXPERIMENTS.len(), "{indexed:?}");
    for id in indexed {
        assert!(
            row_for(id).is_some(),
            "DESIGN.md §5 lists {id}: no such row"
        );
    }

    // EXPERIMENTS.md: one `## E1 — …` heading per experiment, with the
    // row's golden file named and quoted in the section. A11 is the one heading
    // without a row: it is the `simperf::insert_churn` scenario, which
    // asserts its table instead of printing it.
    let doc = include_str!("../../../EXPERIMENTS.md");
    let mut documented = 0;
    for section in doc.split("\n## ").skip(1) {
        let Some(id) = leading_id(section).filter(|id| *id != "A11") else {
            continue;
        };
        let name = row_for(id).unwrap_or_else(|| panic!("EXPERIMENTS.md has {id}: no such row"));
        assert!(
            section.contains(&format!("crates/bench/expected/{name}.txt")),
            "EXPERIMENTS.md {id} does not name its golden file"
        );
        // ... and quoted in full: the section's one ```text block is the
        // golden file, so the document cannot drift from what the row prints.
        let mut fences = section.split("```text\n").skip(1);
        let block = fences.next().and_then(|rest| rest.split("```").next());
        let golden = GOLDEN.iter().find(|(golden, _)| *golden == name);
        assert!(
            block == golden.map(|(_, text)| *text) && fences.next().is_none(),
            "EXPERIMENTS.md {id}: its ```text block is not crates/bench/expected/{name}.txt"
        );
        documented += 1;
    }
    assert_eq!(documented, EXPERIMENTS.len());
}

/// Library modules no DESIGN §5 row names, each with the reason: the
/// infrastructure every row stands on.
const NO_ROW_ON_PURPOSE: [(&str, &str); 2] = [
    (
        "core::fib",
        "the L2 forwarding table every program embeds for its non-remote traffic",
    ),
    (
        "apps::workload",
        "the traffic generators and sinks that drive every row's testbed",
    ),
];

/// The reverse of `every_documented_experiment_names_a_row`: each `pub mod`
/// of `crates/{core,apps}/src/lib.rs` is named (`core::lookup`) in the
/// Modules cell of some DESIGN §5 row, or is on `NO_ROW_ON_PURPOSE`, and
/// not both. A library module that no row runs either gets a row or goes.
#[test]
fn every_library_module_names_a_row() {
    // The Modules cell is the one before the Row cell.
    let named: Vec<&str> = design_index()
        .into_iter()
        .flat_map(|(_, line)| {
            let cells: Vec<&str> = line.trim_end().trim_end_matches('|').split('|').collect();
            cells[cells.len() - 2].split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        })
        .filter(|token| token.starts_with("core::") || token.starts_with("apps::"))
        .collect();
    let mut modules = Vec::new();
    for krate in ["core", "apps"] {
        let lib = fs::read_to_string(repo().join(format!("crates/{krate}/src/lib.rs"))).unwrap();
        modules.extend(lib.lines().filter_map(|line| {
            let module = line.strip_prefix("pub mod ")?.strip_suffix(';')?;
            Some(format!("{krate}::{module}"))
        }));
    }
    for (item, _) in NO_ROW_ON_PURPOSE {
        assert!(
            modules.iter().any(|module| module == item),
            "NO_ROW_ON_PURPOSE names {item}: no such module"
        );
        assert!(
            !named.contains(&item),
            "{item} has a row: take it off NO_ROW_ON_PURPOSE"
        );
    }
    let exempt = NO_ROW_ON_PURPOSE.map(|(item, _)| item);
    let rowless: Vec<&str> = modules
        .iter()
        .map(String::as_str)
        .filter(|module| !named.contains(module) && !exempt.contains(module))
        .collect();
    assert!(
        rowless.is_empty(),
        "library modules no DESIGN.md §5 row names in its Modules cell: {rowless:?}"
    );
}

/// The repository root.
fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A markdown document's inline code spans, fenced blocks left out, each
/// with its line breaks read as spaces (and as nothing after a `::`).
fn code_spans(doc: &str) -> Vec<String> {
    let mut fenced = false;
    let prose: Vec<&str> = doc
        .lines()
        .filter(|line| {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                return false;
            }
            !fenced
        })
        .collect();
    let joined = prose.join("\n");
    let spans = joined.split('`').skip(1).step_by(2);
    spans
        .map(|span| {
            let words = span.split_whitespace().collect::<Vec<_>>();
            words.join(" ").replace(":: ", "::")
        })
        .collect()
}

/// Calls `f` on the text of every `.rs` file under `dir`.
fn each_rust_source(dir: &Path, f: &mut dyn FnMut(&str)) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            each_rust_source(&path, f);
        } else if path.extension().is_some_and(|e| e == "rs") {
            f(&fs::read_to_string(&path).unwrap());
        }
    }
}

/// Whether `src` holds `decl` followed by no further name character.
fn holds(src: &str, decl: &str) -> bool {
    src.match_indices(decl).any(|(at, _)| {
        let next = src[at + decl.len()..].chars().next();
        !next.is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

/// Whether `src` declares `pub {kind} {name}` (and not a longer name).
fn declares(src: &str, kind: &str, name: &str) -> bool {
    holds(src, &format!("pub {kind} {name}"))
}

/// Whether `src` declares an item `name` of any kind, public or not.
fn declares_item(src: &str, name: &str) -> bool {
    [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
    ]
    .iter()
    .any(|kind| holds(src, &format!("{kind} {name}")))
}

/// The crates a document names by path, `extmem_` prefix optional.
const CRATES: [&str; 8] = [
    "types", "wire", "sim", "rnic", "switch", "core", "apps", "bench",
];

/// Every `crate::module` or `crate::module::item` path in a code span, as
/// `(crate, module, item)`. A capitalised second segment is no module
/// (`extmem_types::IntMap` is a re-export), and `switch::tests::name` is a
/// unit test as cargo prints it, module first: neither is returned.
fn module_paths(span: &str) -> impl Iterator<Item = (&str, &str, Option<&str>)> {
    let words = span.split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'));
    words.filter_map(|word| {
        let mut segments = word.split("::");
        let first = segments.next()?;
        let krate = first.strip_prefix("extmem_").unwrap_or(first);
        let module = segments.next()?;
        let item = segments.next().filter(|item| !item.is_empty());
        let is_module = module.starts_with(|c: char| c.is_ascii_lowercase()) && module != "tests";
        (CRATES.contains(&krate) && is_module).then_some((krate, module, item))
    })
}

/// DESIGN.md, README.md and the verify skill against the tree: every
/// backticked path under `crates/`, `tests/` or `scripts/` exists (a
/// `<placeholder>` or `*` stands for any file: what comes before it must
/// exist), every backticked name ending in `Program`, `Stats` or
/// `Config` is a `pub struct` (or, for `PipelineProgram`, a `pub trait`)
/// under `crates/*/src`, and every backticked `crate::module` has its
/// file under `crates/<crate>/src`, which declares the `::item` after it
/// if one is named.
#[test]
fn documented_paths_and_programs_exist() {
    let root = repo();
    let mut src = String::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let dir = krate.unwrap().path().join("src");
        if dir.is_dir() {
            each_rust_source(&dir, &mut |file| src.push_str(file));
        }
    }
    let mut stale = Vec::new();
    for doc in ["DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"] {
        let text = fs::read_to_string(root.join(doc)).unwrap();
        for span in code_spans(&text) {
            let first = span.split(' ').next().unwrap_or_default();
            if ["crates/", "tests/", "scripts/"]
                .iter()
                .any(|dir| first.starts_with(dir))
            {
                let path = first.split(['<', '*']).next().unwrap_or_default();
                assert!(
                    root.join(path).exists(),
                    "{doc}: `{span}` names {path}, which does not exist"
                );
            }
            let words = span.split(|c: char| !(c.is_alphanumeric() || c == '_'));
            let typed = |w: &&str| {
                let kinds = ["Program", "Stats", "Config"];
                kinds.iter().any(|k| w.len() > k.len() && w.ends_with(k))
            };
            for name in words.filter(typed) {
                assert!(
                    declares(&src, "struct", name) || declares(&src, "trait", name),
                    "{doc}: `{span}` names {name}, which is no pub struct under crates/*/src"
                );
            }
            for (krate, module, item) in module_paths(&span) {
                let dir = root.join("crates").join(krate).join("src");
                let file = [
                    dir.join(format!("{module}.rs")),
                    dir.join(module).join("mod.rs"),
                ]
                .into_iter()
                .find(|file| file.is_file());
                let found = file.is_some_and(|file| {
                    let src = fs::read_to_string(file).unwrap();
                    item.is_none_or(|item| declares_item(&src, item))
                });
                if !found {
                    stale.push(format!("{doc}: `{span}`"));
                }
            }
        }
    }
    assert!(
        stale.is_empty(),
        "module paths naming no module file or no item declared in it: {stale:#?}"
    );
}

/// Config settings that no shipped code sets, kept on purpose.
const UNSET_ON_PURPOSE: [(&str, &str); 1] = [(
    "RnicConfig::outage",
    "a fault injector: the tests that take a server down are its callers",
)];

/// Every `.rs` file under `dir`, each cut at its first `#[cfg(test)]` and
/// with its `//` comments blanked: the code a build ships.
fn shipped_sources(dir: &Path, out: &mut Vec<String>) {
    each_rust_source(dir, &mut |src| {
        let code = src.split("#[cfg(test)]").next().unwrap_or_default();
        let lines = code
            .lines()
            .map(|l| l.split("//").next().unwrap_or_default());
        out.push(lines.collect::<Vec<_>>().join("\n"));
    });
}

/// The text between the `{` at `open` and its matching `}`.
fn braced(src: &str, open: usize) -> &str {
    let mut depth = 0;
    for (i, c) in src[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' if depth == 1 => return &src[open + 1..open + i],
            '}' => depth -= 1,
            _ => {}
        }
    }
    panic!("unbalanced braces after byte {open}")
}

/// Every `name {` in `src` that opens a braced block (`name` not being the
/// tail of a longer identifier), as the span from the name to the closing
/// brace and the text between the braces.
fn blocks<'s>(src: &'s str, name: &str) -> Vec<(Range<usize>, &'s str)> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    src.match_indices(name)
        .filter(|&(at, _)| !src[..at].ends_with(ident))
        .filter_map(|(at, _)| {
            let rest = &src[at + name.len()..];
            let open = src.len() - rest.trim_start().len();
            src[open..].starts_with('{').then(|| {
                let body = braced(src, open);
                (at..open + body.len() + 2, body)
            })
        })
        .collect()
}

/// The fields a struct literal's `body` names, explicitly or by shorthand.
fn literal_fields(body: &str) -> Vec<&str> {
    let (mut fields, mut depth, mut start) = (Vec::new(), 0, 0);
    for (i, c) in body.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                fields.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    fields.push(&body[start..]);
    fields
        .into_iter()
        .map(|f| f.split(':').next().unwrap_or_default().trim())
        .filter(|f| !f.is_empty() && !f.starts_with(".."))
        .collect()
}

/// Every `pub` field of every `pub struct …Config` under `crates/*/src` is
/// set somewhere outside the tests, by an explicit or shorthand field in a
/// `Name { … }` literal in `crates/*/src` or `examples/` (the struct's own
/// `impl Default` does not count), unless `UNSET_ON_PURPOSE` says why not.
/// A setting only tests or nothing set is a constant in disguise.
#[test]
fn every_config_field_has_a_setter() {
    let root = repo();
    let mut crates = Vec::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let dir = krate.unwrap().path().join("src");
        if dir.is_dir() {
            shipped_sources(&dir, &mut crates);
        }
    }
    let mut shipped = crates.clone();
    shipped_sources(&root.join("examples"), &mut shipped);

    let mut unset = Vec::new();
    for src in &crates {
        for (at, _) in src.match_indices("pub struct ") {
            let rest = &src[at + "pub struct ".len()..];
            let ident_end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_'));
            let name = &rest[..ident_end.unwrap_or(rest.len())];
            if !name.ends_with("Config") || name == "Config" {
                continue;
            }
            let Some(&(_, decl)) = blocks(rest, name).first() else {
                continue;
            };
            let fields = decl.lines().filter_map(|line| {
                let field = line.trim().strip_prefix("pub ")?;
                Some(field.split(':').next()?.trim())
            });
            // A literal: not the declaration, an `impl` block or a function
            // body returning the type, and not inside `impl Default`.
            let default = format!("impl Default for {name}");
            let mut set = Vec::new();
            for src in &shipped {
                let defaults: Vec<Range<usize>> =
                    blocks(src, &default).into_iter().map(|b| b.0).collect();
                for (span, body) in blocks(src, name) {
                    let before = src[..span.start].trim_end();
                    let not_literal = ["struct", "for", "impl", "->"];
                    if not_literal.iter().any(|w| before.ends_with(w))
                        || defaults.iter().any(|d| d.contains(&span.start))
                    {
                        continue;
                    }
                    set.extend(literal_fields(body));
                }
            }
            for field in fields {
                let qualified = format!("{name}::{field}");
                let allowed = UNSET_ON_PURPOSE
                    .iter()
                    .any(|&(item, _)| item == name || item == qualified);
                if !set.contains(&field) && !allowed {
                    unset.push(qualified);
                }
            }
        }
    }
    assert!(
        unset.is_empty(),
        "set by no code outside the tests; make each a constant: {unset:?}"
    );
}
