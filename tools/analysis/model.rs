//! The shared source model every analysis pass runs over.
//!
//! One scan of the repository's Rust sources produces, per file:
//! comment- and string-stripped text (column-preserving, so byte
//! offsets in the stripped lines line up with the original), a
//! brace-depth map, every lock acquisition (`.lock()` / `.read()` /
//! `.write()`) with its receiver normalized to a *lock class*, the
//! guard's binding and lexical live range, and every blocking point
//! (`Condvar::wait`, `yield_now`, `.await`).
//!
//! The model is a line/token heuristic, not a full parse: multi-line
//! scrutinees and guards returned from helper functions are modeled at
//! the call site only. Passes accept that imprecision and pair with an
//! allowlist for the residue (DESIGN.md §D11).

use std::path::{Path, PathBuf};

/// Directories scanned for Rust sources, relative to the scan root.
pub const SCAN_ROOTS: &[&str] = &["crates", "src", "examples", "tests", "benches"];

/// Directories whose files call into the library but are not linted
/// themselves (the wall-clock benchmark has its own workspace and its
/// own rules); the dead-surface pass reads them as callers.
pub const CALLER_ROOTS: &[&str] = &["benchmark/src"];

/// Directory names never descended into.
pub const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "bench_results", "fixtures"];

/// How a lock acquisition takes the lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Mutex::lock`-style exclusive acquisition.
    Lock,
    /// `RwLock::read` shared acquisition.
    Read,
    /// `RwLock::write` exclusive acquisition.
    Write,
}

impl Mode {
    pub fn verb(self) -> &'static str {
        match self {
            Mode::Lock => "lock()",
            Mode::Read => "read()",
            Mode::Write => "write()",
        }
    }
}

/// How long the returned guard lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardKind {
    /// `let g = x.lock();` — lives to the end of the enclosing block
    /// (or an explicit `drop(g)`).
    Named,
    /// Acquired inside an `if let` / `while let` / `match` scrutinee —
    /// the temporary lives to the end of the *whole* statement,
    /// including every `else` branch (the PR-5 deadlock class).
    Scrutinee,
    /// A plain statement temporary — dropped at the semicolon.
    Temporary,
}

/// One lock acquisition site.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// 1-based line of the `.lock()`/`.read()`/`.write()` token.
    pub line: usize,
    /// 0-based column (char index) of the token's leading dot.
    pub col: usize,
    /// Normalized lock class, `<crate>:<name>`.
    pub class: String,
    pub mode: Mode,
    /// The guard's binding, for [`GuardKind::Named`].
    pub binding: Option<String>,
    pub kind: GuardKind,
    /// 1-based last line on which the guard is still live.
    pub extent_end: usize,
}

/// A point where the holding thread blocks or yields the scheduler.
#[derive(Debug, Clone)]
pub struct WaitPoint {
    /// 1-based line.
    pub line: usize,
    /// 0-based column.
    pub col: usize,
    /// The guard a `Condvar::wait(&mut g)` releases while blocked;
    /// holding *that* guard at the wait is the point.
    pub exempt: Option<String>,
    /// Human label: "Condvar::wait", "yield point", ".await".
    pub what: &'static str,
}

/// One analyzed source file.
#[derive(Debug)]
pub struct FileModel {
    /// Scan-root-relative path, '/'-separated.
    pub path: String,
    /// Owning crate (`crates/<k>/…` ⇒ `k`, anything else ⇒ `repro`).
    pub krate: String,
    /// File stem (fallback lock class for bare `self` receivers).
    pub stem: String,
    /// Comment- and string-stripped lines (columns preserved).
    pub code: Vec<String>,
    /// The original lines, for passes that must read string literals
    /// (e.g. registry names); structure detection stays on `code`.
    pub raw: Vec<String>,
    /// Brace depth at the start of each line.
    pub depth_start: Vec<i32>,
    pub acquisitions: Vec<Acquisition>,
    pub waits: Vec<WaitPoint>,
}

/// The whole scanned tree.
#[derive(Debug)]
pub struct SourceModel {
    pub files: Vec<FileModel>,
    /// Files under [`CALLER_ROOTS`]: references only, never findings.
    pub callers: Vec<FileModel>,
}

impl SourceModel {
    /// Scan `root` and build the model. Scans [`SCAN_ROOTS`] when any
    /// exists under `root`, otherwise the whole tree rooted at `root`
    /// (so fixture directories need no particular layout).
    pub fn build(root: &Path) -> SourceModel {
        let mut files = Vec::new();
        let mut found_any_root = false;
        for scan in SCAN_ROOTS {
            let dir = root.join(scan);
            if dir.is_dir() {
                found_any_root = true;
                collect_rust_files(&dir, &mut files);
            }
        }
        if !found_any_root {
            collect_rust_files(root, &mut files);
        }
        let mut callers = Vec::new();
        for dir in CALLER_ROOTS {
            collect_rust_files(&root.join(dir), &mut callers);
        }
        SourceModel {
            files: analyze_all(root, files),
            callers: analyze_all(root, callers),
        }
    }
}

fn analyze_all(root: &Path, mut files: Vec<PathBuf>) -> Vec<FileModel> {
    files.sort();
    files
        .iter()
        .filter_map(|f| {
            let rel = relative_display(root, f)?;
            let text = std::fs::read_to_string(f).ok()?;
            Some(analyze_file(rel, &text))
        })
        .collect()
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn relative_display(root: &Path, file: &Path) -> Option<String> {
    let rel = file.strip_prefix(root).ok()?;
    Some(
        rel.components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/"),
    )
}

/// Replace comments, string/char literals with spaces, preserving
/// every column and newline, so token offsets survive the strip.
pub fn strip_code(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let n = chars.len();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < n {
        let c = chars[i];
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            while i < n && chars[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 1;
            out.push_str("  ");
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(blank(chars[i]));
                    i += 1;
                }
            }
        } else if c == 'r' && i + 1 < n && (chars[i + 1] == '"' || chars[i + 1] == '#') {
            // Possible raw string r"…" / r#"…"#.
            let mut j = i + 1;
            let mut hashes = 0;
            while j < n && chars[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && chars[j] == '"' {
                for _ in i..=j {
                    out.push(' ');
                }
                i = j + 1;
                while i < n {
                    if chars[i] == '"' {
                        let mut k = i + 1;
                        let mut h = 0;
                        while k < n && h < hashes && chars[k] == '#' {
                            h += 1;
                            k += 1;
                        }
                        if h == hashes {
                            for _ in i..k {
                                out.push(' ');
                            }
                            i = k;
                            break;
                        }
                    }
                    out.push(blank(chars[i]));
                    i += 1;
                }
            } else {
                out.push('r');
                i += 1;
            }
        } else if c == '"' {
            out.push(' ');
            i += 1;
            while i < n {
                if chars[i] == '\\' && i + 1 < n {
                    out.push(' ');
                    out.push(blank(chars[i + 1]));
                    i += 2;
                } else if chars[i] == '"' {
                    out.push(' ');
                    i += 1;
                    break;
                } else {
                    out.push(blank(chars[i]));
                    i += 1;
                }
            }
        } else if c == '\'' {
            // Char literal vs lifetime: 'x' / '\n' are literals,
            // anything else ('a as in &'a) is a lifetime.
            if i + 2 < n && chars[i + 1] == '\\' {
                out.push(' ');
                i += 1;
                while i < n && chars[i] != '\'' {
                    out.push(blank(chars[i]));
                    i += 1;
                }
                if i < n {
                    out.push(' ');
                    i += 1;
                }
            } else if i + 2 < n && chars[i + 2] == '\'' {
                out.push_str("   ");
                i += 3;
            } else {
                out.push('\'');
                i += 1;
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

/// Receivers whose `.lock()` is the std I/O handle lock, not a mutex.
const IO_RECEIVERS: &[&str] = &["stdin", "stdout", "stderr"];

const ACQ_PATTERNS: &[(&str, Mode)] = &[
    (".lock()", Mode::Lock),
    (".read()", Mode::Read),
    (".write()", Mode::Write),
];

fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    if parts.next() == Some("crates") {
        if let Some(k) = parts.next() {
            return k.to_string();
        }
    }
    "repro".to_string()
}

fn stem_of(path: &str) -> String {
    path.rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs")
        .to_string()
}

/// Build the [`FileModel`] for one file.
pub fn analyze_file(path: String, text: &str) -> FileModel {
    let stripped = strip_code(text);
    let code: Vec<String> = stripped.lines().map(str::to_string).collect();
    let raw: Vec<String> = text.lines().map(str::to_string).collect();
    let mut depth_start = Vec::with_capacity(code.len() + 1);
    let mut d = 0i32;
    for line in &code {
        depth_start.push(d);
        for c in line.chars() {
            match c {
                '{' => d += 1,
                '}' => d -= 1,
                _ => {}
            }
        }
    }
    depth_start.push(d);
    let krate = crate_of(&path);
    let stem = stem_of(&path);
    let mut fm = FileModel {
        path,
        krate,
        stem,
        code,
        raw,
        depth_start,
        acquisitions: Vec::new(),
        waits: Vec::new(),
    };
    find_acquisitions(&mut fm);
    find_waits(&mut fm);
    fm
}

fn find_acquisitions(fm: &mut FileModel) {
    let mut found = Vec::new();
    for (li, line) in fm.code.iter().enumerate() {
        let chars: Vec<char> = line.chars().collect();
        for (pat, mode) in ACQ_PATTERNS {
            let mut from = 0;
            while let Some(rel) = find_at(&chars, pat, from) {
                from = rel + 1;
                let Some(site) = classify_site(fm, li, &chars, rel, pat.len(), *mode) else {
                    continue;
                };
                found.push(site);
            }
        }
    }
    found.sort_by_key(|a| (a.line, a.col));
    fm.acquisitions = found;
}

/// Find `pat` in `chars` starting at `from` (char indices).
fn find_at(chars: &[char], pat: &str, from: usize) -> Option<usize> {
    let pat: Vec<char> = pat.chars().collect();
    if chars.len() < pat.len() {
        return None;
    }
    (from..=chars.len() - pat.len()).find(|&i| chars[i..i + pat.len()] == pat[..])
}

fn classify_site(
    fm: &FileModel,
    li: usize,
    chars: &[char],
    col: usize,
    pat_len: usize,
    mode: Mode,
) -> Option<Acquisition> {
    let rcv_start = receiver_start(chars, col);
    let receiver: String = chars[rcv_start..col].iter().collect();
    let tail = class_tail(&receiver);
    if let Some(t) = &tail {
        if IO_RECEIVERS.contains(&t.as_str()) {
            return None;
        }
    }
    let class_name = match tail {
        Some(t) if !t.is_empty() && !t.chars().all(|c| c.is_ascii_digit()) && t != "self" => t,
        _ => fm.stem.clone(),
    };
    let class = format!("{}:{}", fm.krate, class_name);

    let prefix: String = chars[..col].iter().collect();
    let after: String = chars[col + pat_len..].iter().collect();
    let after_trim = after.trim_start();

    // 1. Scrutinee: `if let` / `while let` / `match` keyword earlier on
    //    the line with no `{` or `;` between it and the acquisition.
    let mut kw_hit: Option<(usize, &str)> = None;
    for kw in ["if let ", "while let ", "match "] {
        if let Some(p) = rfind_word(&prefix, kw) {
            if kw_hit.is_none_or(|(q, _)| p > q) {
                kw_hit = Some((p, kw));
            }
        }
    }
    if let Some((p, kw)) = kw_hit {
        let between = &prefix[p..];
        if !between.contains('{') && !between.contains(';') {
            let extent_end = scrutinee_extent(fm, li, col, kw);
            return Some(Acquisition {
                line: li + 1,
                col,
                class,
                mode,
                binding: None,
                kind: GuardKind::Scrutinee,
                extent_end,
            });
        }
    }

    // 2. Chained (`.lock().foo()`, `.read()?`): a statement temporary.
    if after_trim.starts_with('.') || after_trim.starts_with('?') {
        return Some(Acquisition {
            line: li + 1,
            col,
            class,
            mode,
            binding: None,
            kind: GuardKind::Temporary,
            extent_end: statement_extent(fm, li, col),
        });
    }

    // 3. Named: `let <mut> g = recv.lock();` with the acquisition as
    //    the whole right-hand side.
    if after_trim.is_empty() || after_trim.starts_with(';') {
        if let Some(binding) = let_binding(&prefix) {
            let depth = depth_at(fm, li, col);
            let extent_end = named_extent(fm, li, depth, &binding);
            return Some(Acquisition {
                line: li + 1,
                col,
                class,
                mode,
                binding: Some(binding),
                kind: GuardKind::Named,
                extent_end,
            });
        }
    }

    // 4. Anything else: statement temporary.
    Some(Acquisition {
        line: li + 1,
        col,
        class,
        mode,
        binding: None,
        kind: GuardKind::Temporary,
        extent_end: statement_extent(fm, li, col),
    })
}

/// Walk the receiver chain backwards from the acquisition's dot:
/// identifiers, `.`/`::`, and balanced `[…]` / `(…)` groups.
fn receiver_start(chars: &[char], end: usize) -> usize {
    let mut i = end;
    while i > 0 {
        let c = chars[i - 1];
        if c.is_alphanumeric() || c == '_' || c == '.' || c == ':' {
            i -= 1;
        } else if c == ']' || c == ')' {
            let (open, close) = if c == ']' { ('[', ']') } else { ('(', ')') };
            let mut depth = 0i32;
            let mut j = i;
            let mut matched = false;
            while j > 0 {
                let d = chars[j - 1];
                if d == close {
                    depth += 1;
                } else if d == open {
                    depth -= 1;
                    if depth == 0 {
                        j -= 1;
                        matched = true;
                        break;
                    }
                }
                j -= 1;
            }
            if !matched {
                break;
            }
            i = j;
        } else {
            break;
        }
    }
    i
}

/// Last path segment of a receiver chain, stripped of call/index
/// suffixes: `self.slots[home]` ⇒ `slots`.
fn class_tail(receiver: &str) -> Option<String> {
    let seg = receiver.rsplit('.').next().unwrap_or(receiver);
    let seg = seg.split(['[', '(']).next().unwrap_or(seg);
    let seg = seg.rsplit("::").next().unwrap_or(seg).trim();
    if seg.is_empty() {
        None
    } else {
        Some(seg.to_string())
    }
}

/// Find the last occurrence of `word` in `s` that starts at a
/// non-identifier boundary.
fn rfind_word(s: &str, word: &str) -> Option<usize> {
    let mut from = s.len();
    while let Some(p) = s[..from].rfind(word) {
        let boundary = p == 0
            || s[..p]
                .chars()
                .next_back()
                .is_some_and(|c| !c.is_alphanumeric() && c != '_');
        if boundary {
            return Some(p);
        }
        from = p;
    }
    None
}

/// Parse `let <mut> NAME =` off the front of the statement `prefix`
/// ends with; `None` for destructuring or non-let statements.
fn let_binding(prefix: &str) -> Option<String> {
    // Statement start: after the last `;`, `{` or `}` on the line.
    let start = prefix.rfind([';', '{', '}']).map_or(0, |p| p + 1);
    let stmt = prefix[start..].trim_start();
    let rest = stmt.strip_prefix("let ")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        return None;
    }
    // The binding must be directly assigned the acquisition (`=`, or
    // `:` for a type-ascribed `let g: Guard = x.lock();`).
    let after_name = rest[name.len()..].trim_start();
    if after_name.starts_with('=') || after_name.starts_with(':') {
        Some(name)
    } else {
        None
    }
}

/// Brace depth immediately before `(line, col)`.
fn depth_at(fm: &FileModel, line: usize, col: usize) -> i32 {
    let mut d = fm.depth_start[line];
    for (i, c) in fm.code[line].chars().enumerate() {
        if i >= col {
            break;
        }
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// Last line a named guard is live: until its enclosing block closes
/// or an explicit `drop(binding)`.
fn named_extent(fm: &FileModel, line: usize, depth: i32, binding: &str) -> usize {
    let drop_pat = format!("drop({binding})");
    for j in line..fm.code.len() {
        if j > line && fm.code[j].contains(&drop_pat) {
            return j + 1;
        }
        if fm.depth_start[j + 1] < depth {
            return j + 1;
        }
    }
    fm.code.len()
}

/// Last line a scrutinee temporary is live: the end of the whole
/// `if let` / `match` / `while let` statement. For `if let` this
/// includes every `else` block (Rust drops scrutinee temporaries at
/// the end of the full statement — the PR-5 deadlock class).
fn scrutinee_extent(fm: &FileModel, line: usize, col: usize, kw: &str) -> usize {
    let mut li = line;
    let mut ci = col;
    loop {
        // Find the `{` opening the body.
        let Some((bl, bc)) = find_char_from(fm, li, ci, '{') else {
            return line + 1;
        };
        // Walk to its matching `}`.
        let Some((el, ec)) = matching_close(fm, bl, bc) else {
            return fm.code.len();
        };
        if kw != "if let " {
            return el + 1;
        }
        // `else` continues the statement (and keeps the temporary
        // alive); anything else ends it.
        match next_word(fm, el, ec + 1) {
            Some((wl, wc, w)) if w == "else" => {
                li = wl;
                ci = wc + 4;
            }
            _ => return el + 1,
        }
    }
}

/// Statement end: the `;` closing the statement the acquisition is
/// part of (or the line itself when none is found nearby).
fn statement_extent(fm: &FileModel, line: usize, col: usize) -> usize {
    let mut depth = 0i32;
    for j in line..fm.code.len().min(line + 50) {
        let start = if j == line { col } else { 0 };
        for (i, c) in fm.code[j].chars().enumerate() {
            if i < start {
                continue;
            }
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth < 0 {
                        return j + 1;
                    }
                }
                ';' if depth <= 0 => return j + 1,
                _ => {}
            }
        }
    }
    line + 1
}

/// First `target` char at or after `(line, col)`.
fn find_char_from(fm: &FileModel, line: usize, col: usize, target: char) -> Option<(usize, usize)> {
    for j in line..fm.code.len() {
        let start = if j == line { col } else { 0 };
        for (i, c) in fm.code[j].chars().enumerate() {
            if i >= start && c == target {
                return Some((j, i));
            }
        }
    }
    None
}

/// Position of the `}` matching the `{` at `(line, col)`.
fn matching_close(fm: &FileModel, line: usize, col: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    for j in line..fm.code.len() {
        let start = if j == line { col } else { 0 };
        for (i, c) in fm.code[j].chars().enumerate() {
            if i < start {
                continue;
            }
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((j, i));
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Next word (identifier) at or after `(line, col)`.
fn next_word(fm: &FileModel, line: usize, col: usize) -> Option<(usize, usize, String)> {
    for j in line..fm.code.len() {
        let chars: Vec<char> = fm.code[j].chars().collect();
        let mut i = if j == line { col } else { 0 };
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                return Some((j, start, chars[start..i].iter().collect()));
            } else {
                return None;
            }
        }
    }
    None
}

fn find_waits(fm: &mut FileModel) {
    let mut waits = Vec::new();
    for (li, line) in fm.code.iter().enumerate() {
        if let Some(p) = line.find(".wait(") {
            let arg = line[p + ".wait(".len()..].trim_start();
            let exempt = arg.strip_prefix("&mut ").map(|rest| {
                rest.chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect::<String>()
            });
            waits.push(WaitPoint {
                line: li + 1,
                col: p,
                exempt,
                what: "Condvar::wait",
            });
        }
        if let Some(p) = line.find("yield_now()") {
            waits.push(WaitPoint {
                line: li + 1,
                col: p,
                exempt: None,
                what: "yield point",
            });
        }
        if let Some(p) = line.find(".await") {
            waits.push(WaitPoint {
                line: li + 1,
                col: p,
                exempt: None,
                what: ".await",
            });
        }
    }
    fm.waits = waits;
}
