//! Workspace maintenance tasks.
//!
//! `cargo run -p xtask -- pairs …` and `… -- judge …` run the benchmark
//! against a parent revision and apply its landing rule (see [`bench`](mod@bench)).
//!
//! `cargo run -p xtask -- lint` walks the workspace sources and enforces the
//! rules that rustc/clippy cannot express:
//!
//! 1. **SAFETY comments** — every `unsafe` block, fn or impl must be
//!    directly preceded (through attributes, blanks and the rest of its
//!    comment block) by a comment containing `SAFETY:` explaining why the
//!    contract holds.  Chained `unsafe impl` lines may share one comment.
//! 2. **Memory-ordering allowlist** — `Ordering::Relaxed`, `Acquire`,
//!    `Release` and `AcqRel` are only permitted in modules on the allowlist
//!    below, each with a recorded reason (typically: the module is
//!    model-checked, or the atomic is a counter with no cross-thread
//!    ordering obligation).  `SeqCst` is always allowed — it is never the
//!    *subtle* choice.  New weak orderings elsewhere fail CI until the
//!    module is reviewed and listed.
//! 3. **Crate-root attributes** — crates whose sources contain no `unsafe`
//!    must carry `#![forbid(unsafe_code)]`; crates that do use `unsafe`
//!    must carry `#![deny(unsafe_op_in_unsafe_fn)]`.
//!
//! 4. **No dead `pub` surface** — every `pub` `fn`, `struct`, `enum`,
//!    `trait`, `type`, `const` or `static` declared in `crates/*/src` must be
//!    named by some *other* `.rs` file under `crates`, `shims`, `src`,
//!    `xtask`, `tests`, `examples` or `perf_ledger` (the benchmark calls the
//!    engine's API too).  Only code counts: a name in a comment, a doc
//!    comment or a string keeps nothing alive, and neither does a `use` or
//!    `pub use` (a re-export alone is not a caller).  rustc's `dead_code`
//!    cannot see this, because to rustc a `pub` item is used by definition;
//!    once such an item is private, `dead_code` takes over.  The rule applies
//!    only to identifiers declared once as a `pub` item in the workspace: a
//!    name declared twice (`new`, `len`) cannot be told apart by words.
//!    `PUB_SURFACE_ALLOWLIST` holds the exceptions, grouped with a reason:
//!    only types that another crate receives through a `pub` signature but
//!    never spells, where `pub(crate)` would leak a private type.  An entry
//!    that matches no declaration fails the lint, so the list cannot rot.
//!    Shims are searched for names but not checked themselves: they mirror
//!    external crates' APIs.  Items that `macro_rules!` generates
//!    (`pub struct $name`) are outside the rule: a line declares no name
//!    until the macro expands.
//!
//! Rules 1–3 skip directories named `tests`: they protect production code,
//! and test-only atomics/counters would drown the allowlist.  Every rule
//! skips `target/` and `.bench_build/` (the benchmark driver's unpacked old
//! source trees, which would name every item).

#![forbid(unsafe_code)]

mod bench;

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Modules allowed to use weak (non-SeqCst) memory orderings, with the
/// reason each earned its entry.  Paths are workspace-relative prefixes.
const ORDERING_ALLOWLIST: &[(&str, &str)] = &[
    (
        "shims/loom/src/",
        "the model checker itself implements the C11 visibility rules",
    ),
    (
        "shims/crossbeam/src/",
        "model-checked lock-free channels (docs/concurrency.md)",
    ),
    (
        "crates/core/src/reply.rs",
        "model-checked reply rendezvous (docs/concurrency.md)",
    ),
    (
        "crates/core/src/inbox.rs",
        "model-checked worker inbox: lane ring stamps and the park/stop/close word (docs/concurrency.md)",
    ),
    (
        "crates/core/src/engine.rs",
        "relaxed fetch_add allocating unique agent ids; uniqueness needs atomicity only",
    ),
    (
        "crates/core/src/partition.rs",
        "failure-injection knob read and written on the same worker thread",
    ),
    (
        "crates/core/src/dlb/histogram.rs",
        "relaxed access counters, aggregated only after a quiesce barrier",
    ),
    (
        "crates/instrument/src/",
        "monotonic stat counters; snapshots tolerate torn cross-counter reads",
    ),
    (
        "crates/storage/src/frame.rs",
        "page-latch protocol; Acquire/Release pairing argued in-module",
    ),
    (
        "crates/storage/src/bufferpool.rs",
        "relaxed fetch_add allocating unique page ids",
    ),
    (
        "crates/wal/src/manager.rs",
        "flusher state word, written under the durable-marks mutex (Acquire/Release)",
    ),
    (
        "crates/txn/src/manager.rs",
        "relaxed fetch_add allocating unique txn ids",
    ),
    (
        "crates/workloads/src/",
        "driver stat counters and the skew-shift offset cell (Acquire/Release pair)",
    ),
];

/// `pub` items in `crates/*/src` that no other file names but that must
/// stay `pub`, as (declaring file, identifiers, reason).  Every entry is a
/// type that another crate receives through a `pub` signature and uses
/// without spelling its name; `pub(crate)` would make that signature leak a
/// private type (`private_interfaces`).
const PUB_SURFACE_ALLOWLIST: &[(&str, &[&str], &str)] = &[
    (
        "crates/instrument/src/trace.rs",
        &["TraceScope", "TraceRecord"],
        "returned by TraceRing::span and TraceRegistry::read_all",
    ),
    (
        "crates/storage/src/frame.rs",
        &["PageReadGuard", "PageWriteGuard"],
        "returned by Frame::read_latched / write_latched to the B-tree",
    ),
    (
        "crates/lock/src/local.rs",
        &["LocalLockOutcome"],
        "returned by LocalLockTable::acquire to the partition workers",
    ),
    (
        "crates/lock/src/manager.rs",
        &["LockRequestOutcome"],
        "returned by LockManager::acquire to the conventional context",
    ),
    (
        "crates/wal/src/recovery.rs",
        &["LogScan"],
        "returned by scan_log to engine recovery",
    ),
    (
        "crates/btree/src/mrbtree.rs",
        &["RepartitionReport"],
        "returned by MrbTree::slice / meld to the partition manager",
    ),
    (
        "crates/btree/src/tree.rs",
        &["LeafSplitInfo"],
        "pub field of InsertOutcome, read by the heap-placement fix-up",
    ),
    (
        "crates/btree/src/costmodel.rs",
        &["IndexChanges"],
        "pub fields of RepartitionCost, read by the DLB planner and the cost table",
    ),
    (
        "crates/core/src/engine.rs",
        &["RecoveryReport"],
        "returned by Engine::recover to tests and the benchmark",
    ),
    (
        "crates/core/src/reply.rs",
        &["ReplyClosed"],
        "the error of the reply slots' wait",
    ),
    (
        "crates/server/src/frame.rs",
        &["SoftError"],
        "pub field of ReadOutcome::Rejected, matched by the client",
    ),
    (
        "crates/bench/src/msgcost.rs",
        &["MsgCostPoint"],
        "returned by measure_msgcost to the fig_msgcost and check_bench binaries",
    ),
    (
        "crates/bench/src/obs.rs",
        &["ObsResult"],
        "returned by measure_overhead to the fig_obs and check_bench binaries",
    ),
    (
        "crates/bench/src/server.rs",
        &["ServerResult", "ServerPoint"],
        "returned by measure_server to the fig_server and check_bench binaries",
    ),
];

const WEAK_ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some("pairs") => bench::pairs(&workspace_root(), &args[1..]),
        Some("judge") => bench::judge(&workspace_root(), &args[1..]),
        Some(other) => {
            eprintln!("xtask: unknown task `{other}` (one of lint, pairs, judge)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("xtask: no task given (one of lint, pairs, judge)");
            ExitCode::FAILURE
        }
    }
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives one level under the workspace root")
        .to_path_buf()
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut paths = Vec::new();
    for top in PUB_SURFACE_TOPS {
        collect_rs_files(&root.join(top), &mut paths);
    }
    paths.sort();

    let mut violations = Vec::new();
    let mut sources = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = path
            .strip_prefix(&root)
            .expect("walked file is under the root")
            .to_string_lossy()
            .replace('\\', "/");
        match std::fs::read_to_string(path) {
            Ok(text) => sources.push((rel, text)),
            Err(e) => violations.push(format!("{rel}: unreadable: {e}")),
        }
    }

    // Rules 1–3 cover production code only.
    let mut hygiene_files = Vec::new();
    for ((rel, text), path) in sources.iter().zip(&paths) {
        if !is_hygiene_scope(rel) {
            continue;
        }
        hygiene_files.push(path.clone());
        let code = strip_comments_and_strings(text);
        check_safety_comments(rel, text, &code, &mut violations);
        check_ordering_allowlist(rel, &code, &mut violations);
    }
    check_crate_roots(&root, &hygiene_files, &mut violations);
    check_pub_surface(&sources, PUB_SURFACE_ALLOWLIST, &mut violations);

    if violations.is_empty() {
        println!(
            "xtask lint: ok ({} files; SAFETY comments, ordering allowlist, crate-root attrs, \
             pub surface)",
            sources.len()
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("xtask lint: {v}");
        }
        eprintln!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// Directories never walked: build output, and the benchmark driver's
/// unpacked source trees (which would name every item of an older tree).
const SKIPPED_DIRS: &[&str] = &["target", ".bench_build"];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIPPED_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Rules 1–3 apply to `crates`, `shims`, `src` and `xtask`, outside any
/// `tests` directory.
fn is_hygiene_scope(rel: &str) -> bool {
    ["crates/", "shims/", "src/", "xtask/"]
        .iter()
        .any(|top| rel.starts_with(top))
        && !rel.split('/').any(|c| c == "tests")
}

/// Replace comments and string/char-literal contents with spaces, keeping
/// line structure intact so reported line numbers match the source.
fn strip_comments_and_strings(text: &str) -> String {
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
        Char,
    }
    let mut st = St::Code;
    let mut out = String::with_capacity(text.len());
    let b: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied();
        match st {
            St::Code => match (c, next) {
                ('/', Some('/')) => {
                    st = St::LineComment;
                    out.push_str("  ");
                    i += 2;
                }
                ('/', Some('*')) => {
                    st = St::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                }
                ('"', _) => {
                    st = St::Str;
                    out.push('"');
                    i += 1;
                }
                ('r', Some('"')) | ('r', Some('#')) => {
                    // Raw string: count the hashes.
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                }
                ('\'', _) => {
                    // Char literal vs lifetime: a closing quote within a few
                    // chars (allowing escapes) means literal.
                    let is_char = b.get(i + 1) == Some(&'\\')
                        || (b.get(i + 2) == Some(&'\'') && b.get(i + 1) != Some(&'\''));
                    if is_char {
                        st = St::Char;
                    }
                    out.push(c);
                    i += 1;
                }
                _ => {
                    out.push(c);
                    i += 1;
                }
            },
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            St::BlockComment(depth) => match (c, next) {
                ('*', Some('/')) => {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                }
                ('/', Some('*')) => {
                    st = St::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                }
                ('\n', _) => {
                    out.push('\n');
                    i += 1;
                }
                _ => {
                    out.push(' ');
                    i += 1;
                }
            },
            St::Str => match (c, next) {
                ('\\', Some(escaped)) => {
                    // A `\` line continuation keeps its newline.
                    out.push(' ');
                    out.push(if escaped == '\n' { '\n' } else { ' ' });
                    i += 2;
                }
                ('"', _) => {
                    st = St::Code;
                    out.push('"');
                    i += 1;
                }
                ('\n', _) => {
                    out.push('\n');
                    i += 1;
                }
                _ => {
                    out.push(' ');
                    i += 1;
                }
            },
            St::RawStr(hashes) => {
                if c == '"' && (0..hashes).all(|k| b.get(i + 1 + k) == Some(&'#')) {
                    st = St::Code;
                    for _ in 0..=hashes {
                        out.push(' ');
                    }
                    i = i + 1 + hashes;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::Char => {
                if c == '\'' {
                    st = St::Code;
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
                i += 1;
            }
        }
    }
    out
}

/// Does `code` contain `unsafe` as a standalone token (not `unsafe_code`
/// etc.)?
fn has_unsafe_token(code: &str) -> bool {
    find_word(code, "unsafe").is_some()
}

fn is_comment_or_skippable(trimmed: &str) -> bool {
    trimmed.is_empty()
        || trimmed.starts_with("//")
        || trimmed.starts_with("#[")
        || trimmed.starts_with("#![")
        || trimmed.starts_with("/*")
        || trimmed.starts_with('*')
}

/// Rule 1: every line whose *code* contains an `unsafe` token must carry or
/// be preceded by a `SAFETY:` comment (scanning upward through the rest of
/// its comment/attribute block, and through chained `unsafe impl` lines).
fn check_safety_comments(rel: &str, text: &str, code: &str, violations: &mut Vec<String>) {
    let src_lines: Vec<&str> = text.lines().collect();
    let code_lines: Vec<&str> = code.lines().collect();
    for (idx, code_line) in code_lines.iter().enumerate() {
        if !has_unsafe_token(code_line) {
            continue;
        }
        // Attribute lines (`#![deny(unsafe_op_in_unsafe_fn)]` &co) never
        // need a SAFETY comment; the token check already skips most, but be
        // explicit.
        if src_lines[idx].trim_start().starts_with('#') {
            continue;
        }
        if src_lines[idx].contains("SAFETY:") {
            continue;
        }
        let mut ok = false;
        for j in (0..idx).rev() {
            let trimmed = src_lines[j].trim_start();
            // `SAFETY:` comments justify unsafe *blocks*; an `unsafe fn`'s
            // contract conventionally lives in a `# Safety` doc section.
            if trimmed.starts_with("//")
                && (trimmed.contains("SAFETY:") || trimmed.contains("# Safety"))
            {
                ok = true;
                break;
            }
            if is_comment_or_skippable(trimmed) {
                continue;
            }
            // A chained `unsafe impl` shares the comment above the chain.
            if has_unsafe_token(code_lines[j]) && trimmed.starts_with("unsafe impl") {
                continue;
            }
            break;
        }
        if !ok {
            violations.push(format!(
                "{rel}:{}: `unsafe` without a preceding `// SAFETY:` comment",
                idx + 1
            ));
        }
    }
}

/// Rule 2: weak orderings only in allowlisted modules.
fn check_ordering_allowlist(rel: &str, code: &str, violations: &mut Vec<String>) {
    let allowed = ORDERING_ALLOWLIST.iter().any(|(p, _)| rel.starts_with(p));
    if allowed {
        return;
    }
    for (idx, line) in code.lines().enumerate() {
        for ord in WEAK_ORDERINGS {
            if line.contains(ord) {
                violations.push(format!(
                    "{rel}:{}: {ord} outside the ordering allowlist — either use SeqCst \
                     or review the module and add it to ORDERING_ALLOWLIST in xtask \
                     with a reason",
                    idx + 1
                ));
            }
        }
    }
}

/// Rule 3: crate roots carry `#![forbid(unsafe_code)]` when the crate is
/// unsafe-free, `#![deny(unsafe_op_in_unsafe_fn)]` when it is not.
fn check_crate_roots(root: &Path, files: &[PathBuf], violations: &mut Vec<String>) {
    let roots: Vec<PathBuf> = files
        .iter()
        .filter(|p| {
            let rel = p.strip_prefix(root).expect("under root");
            let s = rel.to_string_lossy().replace('\\', "/");
            s == "src/lib.rs"
                || s == "xtask/src/main.rs"
                || (s.ends_with("/src/lib.rs")
                    && (s.starts_with("crates/") || s.starts_with("shims/")))
        })
        .cloned()
        .collect();
    for crate_root in roots {
        let rel = crate_root
            .strip_prefix(root)
            .expect("under root")
            .to_string_lossy()
            .replace('\\', "/");
        let src_dir = crate_root.parent().expect("crate root has a src dir");
        let crate_uses_unsafe = files.iter().filter(|p| p.starts_with(src_dir)).any(|p| {
            std::fs::read_to_string(p)
                .map(|t| has_unsafe_token(&strip_comments_and_strings(&t)))
                .unwrap_or(false)
        });
        let text = std::fs::read_to_string(&crate_root).unwrap_or_default();
        if crate_uses_unsafe {
            if !text.contains("#![deny(unsafe_op_in_unsafe_fn)]") {
                violations.push(format!(
                    "{rel}: crate uses `unsafe` but the root lacks \
                     `#![deny(unsafe_op_in_unsafe_fn)]`"
                ));
            }
        } else if !text.contains("#![forbid(unsafe_code)]") {
            violations.push(format!(
                "{rel}: crate is unsafe-free but the root lacks `#![forbid(unsafe_code)]`"
            ));
        }
    }
}

/// Where rule 4 looks for names: every `.rs` file under these directories.
const PUB_SURFACE_TOPS: &[&str] = &[
    "crates",
    "shims",
    "src",
    "xtask",
    "tests",
    "examples",
    "perf_ledger",
];

const PUB_ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Rule 4: a `pub` item declared in `crates/*/src` must be named by some
/// other `.rs` file, or carry an allowlist entry.
fn check_pub_surface(
    sources: &[(String, String)],
    allowlist: &[(&str, &[&str], &str)],
    violations: &mut Vec<String>,
) {
    // Tokenize each file once: its `pub` declarations, and the set of words
    // its code names outside comments, strings and `use` declarations.
    let mut decls: Vec<(&str, usize, String)> = Vec::new();
    let mut declared: HashMap<String, usize> = HashMap::new();
    let mut files_naming: HashMap<String, usize> = HashMap::new();
    for (rel, text) in sources {
        if rel.split('/').any(|c| SKIPPED_DIRS.contains(&c)) {
            continue;
        }
        let code = blank_use_declarations(&strip_comments_and_strings(text));
        for (idx, line) in code.lines().enumerate() {
            if let Some(name) = pub_item_name(line) {
                *declared.entry(name.clone()).or_default() += 1;
                if is_crate_src(rel) {
                    decls.push((rel, idx + 1, name));
                }
            }
        }
        let words: HashSet<&str> = code
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .collect();
        for w in words {
            *files_naming.entry(w.to_string()).or_default() += 1;
        }
    }
    let allowed = |rel: &str, name: &str| {
        allowlist
            .iter()
            .any(|(path, names, _)| *path == rel && names.contains(&name))
    };
    for (rel, line, name) in &decls {
        // The declaring file always names the item; another file must too.
        let named_by_others = files_naming[name] > 1;
        if declared[name] == 1 && !named_by_others && !allowed(rel, name) {
            violations.push(format!(
                "{rel}:{line}: `pub` item `{name}` is named by no other file — delete it, \
                 make it private, or add it to PUB_SURFACE_ALLOWLIST in xtask with a reason"
            ));
        }
    }
    for (path, names, _) in allowlist {
        for name in *names {
            if !decls.iter().any(|(rel, _, n)| rel == path && n == name) {
                violations.push(format!(
                    "{path}: stale PUB_SURFACE_ALLOWLIST entry `{name}` matches no `pub` \
                     declaration"
                ));
            }
        }
    }
}

/// `crates/<name>/src/…`.
fn is_crate_src(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    parts.len() > 3 && parts[0] == "crates" && parts[2] == "src"
}

/// The identifier a `pub fn|struct|enum|trait|type|const|static` line
/// declares (`pub(crate)` and the like are not `pub`).
fn pub_item_name(code_line: &str) -> Option<String> {
    let words: Vec<&str> = code_line
        .trim_start()
        .strip_prefix("pub ")?
        .split_whitespace()
        .collect();
    // Skip qualifiers: `const fn`, `const unsafe fn`, `async fn`, `unsafe trait`.
    let mut i = 0;
    while matches!(words.get(i), Some(&("const" | "unsafe" | "async")))
        && matches!(
            words.get(i + 1),
            Some(&("fn" | "unsafe" | "async" | "trait"))
        )
    {
        i += 1;
    }
    if !PUB_ITEM_KINDS.contains(words.get(i)?) {
        return None;
    }
    let name = match *words.get(i + 1)? {
        "mut" => words.get(i + 2)?,
        name => name,
    };
    ident_prefix(name)
}

fn ident_prefix(s: &str) -> Option<String> {
    let end = s
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    (end > 0).then(|| s[..end].to_string())
}

/// Blank every `use …;` declaration in comment- and string-stripped code, so
/// a re-export or an import alone names nothing.
fn blank_use_declarations(code: &str) -> String {
    let mut out = String::with_capacity(code.len());
    let mut rest = code;
    while let Some(pos) = find_word(rest, "use") {
        out.push_str(&rest[..pos]);
        let end = rest[pos..].find(';').map_or(rest.len(), |e| pos + e + 1);
        out.extend(
            rest[pos..end]
                .chars()
                .map(|c| if c == '\n' { '\n' } else { ' ' }),
        );
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

/// Byte offset of the first whole-word `word` in `s`.
fn find_word(s: &str, word: &str) -> Option<usize> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(off) = s[from..].find(word) {
        let pos = from + off;
        let before_ok = !s[..pos].chars().next_back().is_some_and(is_ident);
        let after_ok = !s[pos + word.len()..].chars().next().is_some_and(is_ident);
        if before_ok && after_ok {
            return Some(pos);
        }
        from = pos + word.len();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_removes_comments_and_strings() {
        let s = strip_comments_and_strings(
            "let x = \"unsafe\"; // unsafe in a comment\nlet y = 1; /* Ordering::Relaxed */\n",
        );
        assert!(!s.contains("unsafe"));
        assert!(!s.contains("Relaxed"));
        assert!(s.contains("let y = 1;"));
        // Line structure is preserved.
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn stripper_keeps_code_outside_literals() {
        let s = strip_comments_and_strings("unsafe { foo(\"bar\") } // tail\n");
        assert!(has_unsafe_token(&s));
        assert!(!s.contains("bar"));
        assert!(!s.contains("tail"));
    }

    #[test]
    fn stripper_handles_lifetimes_and_chars() {
        let s = strip_comments_and_strings("fn f<'a>(x: &'a str) -> char { 'y' }");
        assert!(s.contains("fn f<'a>(x: &'a str) -> char"));
        assert!(!s.contains('y'));
    }

    #[test]
    fn stripper_keeps_the_line_of_a_string_continuation() {
        let s = strip_comments_and_strings("let s = \"a \\\n b\";\nlet t = 1;\n");
        assert_eq!(s.lines().count(), 3);
        assert!(s.lines().nth(2).unwrap().contains("let t = 1;"));
    }

    #[test]
    fn unsafe_token_respects_word_boundaries() {
        assert!(has_unsafe_token("unsafe impl Send for X {}"));
        assert!(has_unsafe_token("let _ = unsafe { p.read() };"));
        assert!(!has_unsafe_token("forbid(unsafe_code)"));
        assert!(!has_unsafe_token("deny(unsafe_op_in_unsafe_fn)"));
        assert!(!has_unsafe_token("fn not_unsafe_here() {}"));
    }

    #[test]
    fn safety_rule_accepts_commented_and_chained_unsafe() {
        let text = "\
// SAFETY: both impls hold because T: Send.
unsafe impl<T: Send> Send for X<T> {}
unsafe impl<T: Send> Sync for X<T> {}

fn f(p: *const u8) -> u8 {
    // SAFETY: caller guarantees p is valid.
    unsafe { *p }
}
";
        let code = strip_comments_and_strings(text);
        let mut v = Vec::new();
        check_safety_comments("x.rs", text, &code, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn safety_rule_rejects_bare_unsafe() {
        let text = "fn f(p: *const u8) -> u8 {\n    // reads p\n    unsafe { *p }\n}\n";
        let code = strip_comments_and_strings(text);
        let mut v = Vec::new();
        check_safety_comments("x.rs", text, &code, &mut v);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("x.rs:3"));
    }

    #[test]
    fn ordering_rule_flags_unlisted_files_only() {
        let code = "a.load(Ordering::Relaxed); b.load(Ordering::SeqCst);";
        let mut v = Vec::new();
        check_ordering_allowlist("crates/foo/src/lib.rs", code, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        v.clear();
        check_ordering_allowlist("crates/instrument/src/stats.rs", code, &mut v);
        assert!(v.is_empty());
    }

    const DECLARING: &str = "crates/a/src/lib.rs";

    /// Rule 4 over `DECLARING` (declaring `pub fn lonely`) plus `others`.
    fn pub_surface(others: &[(&str, &str)], allowlist: &[(&str, &[&str], &str)]) -> Vec<String> {
        let mut sources = vec![(
            DECLARING.to_string(),
            "pub fn lonely() {}\npub fn busy() { lonely() }\n".to_string(),
        )];
        sources.extend(others.iter().map(|(r, t)| (r.to_string(), t.to_string())));
        let mut v = Vec::new();
        check_pub_surface(&sources, allowlist, &mut v);
        v.retain(|line| !line.contains("`busy`"));
        v
    }

    #[test]
    fn pub_surface_flags_an_unnamed_pub_fn() {
        let v = pub_surface(&[("crates/b/src/lib.rs", "fn other() {}\n")], &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("crates/a/src/lib.rs:1: `pub` item `lonely`"));
    }

    #[test]
    fn pub_surface_passes_a_pub_fn_named_from_another_file() {
        for other in [
            ("crates/b/src/lib.rs", "fn f() { a::lonely() }\n"),
            ("tests/it.rs", "#[test]\nfn t() { a::lonely(); }\n"),
            ("perf_ledger/src/main.rs", "fn main() { a::lonely(); }\n"),
        ] {
            assert!(pub_surface(&[other], &[]).is_empty(), "{other:?}");
        }
    }

    #[test]
    fn pub_surface_ignores_comments_strings_and_use_declarations() {
        for text in [
            "/// Calls [`lonely`].\nfn f() {}\n",
            "fn f() { println!(\"lonely\"); }\n",
            "pub use a::lonely;\n",
            "use a::{busy, lonely};\nfn f() { busy() }\n",
        ] {
            let v = pub_surface(&[("crates/b/src/lib.rs", text)], &[]);
            assert_eq!(v.len(), 1, "{text:?}: {v:?}");
        }
    }

    #[test]
    fn pub_surface_passes_an_allowlisted_item() {
        let allow: &[(&str, &[&str], &str)] = &[(DECLARING, &["lonely"], "reason")];
        assert!(pub_surface(&[], allow).is_empty());
    }

    #[test]
    fn pub_surface_fails_a_stale_allowlist_entry() {
        let allow: &[(&str, &[&str], &str)] = &[(DECLARING, &["lonely", "gone"], "reason")];
        let v = pub_surface(&[], allow);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("stale") && v[0].contains("`gone`"), "{v:?}");
    }

    #[test]
    fn pub_surface_ignores_build_output_and_old_source_trees() {
        let v = pub_surface(
            &[
                ("target/debug/build/out.rs", "fn f() { lonely() }\n"),
                (
                    ".bench_build/54281c555cfe/crates/b/src/lib.rs",
                    "fn f() { lonely() }\n",
                ),
            ],
            &[],
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn pub_surface_skips_names_declared_twice() {
        let v = pub_surface(&[("crates/b/src/lib.rs", "pub fn lonely() {}\n")], &[]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn pub_item_names_cover_every_kind() {
        for (line, name) in [
            ("pub fn f(x: u8) {", "f"),
            ("    pub const fn g() -> u8 {", "g"),
            ("pub unsafe fn h() {", "h"),
            ("pub struct S<T> {", "S"),
            ("pub enum E {", "E"),
            ("pub trait T: Send {", "T"),
            ("pub type A = u8;", "A"),
            ("pub const C: u8 = 1;", "C"),
            ("pub static mut M: u8 = 0;", "M"),
        ] {
            assert_eq!(pub_item_name(line).as_deref(), Some(name), "{line}");
        }
        for line in [
            "pub(crate) fn f() {",
            "pub mod m;",
            "pub use a::b;",
            "fn f() {",
        ] {
            assert_eq!(pub_item_name(line), None, "{line}");
        }
    }

    #[test]
    fn lint_passes_on_this_workspace() {
        assert_eq!(lint(), ExitCode::SUCCESS);
    }
}
