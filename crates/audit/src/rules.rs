//! The rule engine: walks a token stream and produces findings.
//!
//! The engine works in layers:
//!
//! 1. a *mask* pass marks token ranges that the rules must ignore —
//!    `#[cfg(test)]` items, `#[test]` functions, and `macro_rules!`
//!    bodies (whose `$(#[$doc])*` metavariables would otherwise look
//!    like undocumented `pub fn`s);
//! 2. a *waiver* pass collects `bios-audit` allow-comments from the
//!    comment channel;
//! 3. the *rule* pass matches lexical patterns over the unmasked code
//!    tokens, scoped by path (see [`Config`]) — including the
//!    L-family lock/channel discipline, which walks the
//!    [`crate::items`] tree to confine its guard automaton to one
//!    function body at a time;
//! 4. waivers are applied — each suppresses exactly one finding on its
//!    own line or the line below — and waivers that are malformed or
//!    suppressed nothing become findings themselves.
//!
//! For the whole-workspace semantic pass, [`analyze_file`] returns the
//! *pre-waiver* [`crate::graph::FileFacts`] instead, so the pipeline
//! in [`crate::workspace`] can run the cross-file G rules first and
//! apply waivers to the combined finding set.
//!
//! Everything here is pure: same source bytes in, same findings out,
//! in a deterministic order.

use crate::config::{Config, Rule};
use crate::graph::{banned_api, extract_facts, fnv1a, FileFacts};
use crate::items::{parse_items, Item, ItemKind};
use crate::lexer::{tokenize, Token, TokenKind};

/// One audit finding, printable as `file:line:col rule message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl Finding {
    /// Render in the canonical `file:line:col rule message` form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{} {} {}",
            self.path,
            self.line,
            self.col,
            self.rule.id(),
            self.message
        )
    }
}

/// A parsed waiver comment and whether it ended up suppressing a
/// finding.
#[derive(Debug, Clone)]
pub struct WaiverRecord {
    /// Repo-relative path of the file carrying the waiver.
    pub path: String,
    /// 1-based line of the waiver comment.
    pub line: u32,
    /// The rule id or family letter named in `allow(…)`.
    pub rule: String,
    /// The mandatory justification after the dash.
    pub reason: String,
    /// Whether the waiver suppressed a finding.
    pub used: bool,
}

/// The result of auditing one file.
#[derive(Debug, Default)]
pub struct AuditOutcome {
    /// Findings that survived waiver application, sorted.
    pub findings: Vec<Finding>,
    /// Every syntactically valid waiver encountered, used or not.
    pub waivers: Vec<WaiverRecord>,
}

/// Audit a single file's source text.
///
/// `path` should be repo-relative with forward slashes; it is used for
/// rule scoping and is echoed into the findings. This runs every
/// single-file rule (D/F/U/L) and applies the file's waivers; the
/// cross-file G rules need the whole workspace and live in
/// [`crate::workspace`].
pub fn audit_source(path: &str, source: &str, config: &Config) -> AuditOutcome {
    let facts = analyze_file(path, source, config);
    let mut findings = facts.local_findings;
    let mut waivers = facts.waivers;
    finalize(&mut findings, &mut waivers);
    AuditOutcome { findings, waivers }
}

/// Analyze one file into its pre-waiver [`FileFacts`]: local findings
/// (D/F/U/L), declared waivers, and the call/dependency facts the
/// graph passes consume. Pure in `(path, source, config)` — the unit
/// the FNV cache stores.
pub fn analyze_file(path: &str, source: &str, config: &Config) -> FileFacts {
    let tokens = tokenize(source);
    let masked = mask_ignored_regions(&tokens);
    // Indices of code (non-comment) tokens, the stream rules match on.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();

    let mut findings = Vec::new();
    let waivers = collect_waivers(path, &tokens, &mut findings);

    run_token_rules(path, &tokens, &code, &masked, config, &mut findings);
    run_doc_rule(path, &tokens, &code, &masked, config, &mut findings);

    let items = parse_items(&tokens);
    run_lock_rules(path, &tokens, &items, &mut findings);
    let (fns, use_deps) = extract_facts(path, &tokens, &masked, &items);

    FileFacts {
        path: path.to_string(),
        source_fnv: fnv1a(source.as_bytes()),
        local_findings: findings,
        waivers,
        fns,
        use_deps,
    }
}

/// Apply waivers to a finding set, convert unused waivers into
/// `W-waiver` findings, and sort into report order.
pub fn finalize(findings: &mut Vec<Finding>, waivers: &mut [WaiverRecord]) {
    apply_waivers(findings, waivers);
    for w in waivers.iter() {
        if !w.used {
            findings.push(Finding {
                path: w.path.clone(),
                line: w.line,
                col: 1,
                rule: Rule::WWaiver,
                message: format!("waiver allow({}) did not suppress any finding", w.rule),
            });
        }
    }
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule.id()).cmp(&(
            b.path.as_str(),
            b.line,
            b.col,
            b.rule.id(),
        ))
    });
}

/// Mark every token inside a `#[cfg(test)]` item, `#[test]` fn, or
/// `macro_rules!` body. Returns a mask aligned with `tokens`.
fn mask_ignored_regions(tokens: &[Token]) -> Vec<bool> {
    let mut masked = vec![false; tokens.len()];
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();

    let mut k = 0usize;
    while k < code.len() {
        let i = code[k];
        let t = &tokens[i];
        if t.kind == TokenKind::Punct && t.text == "#" {
            // Inner attribute `#![…]` — if it gates the whole file on
            // test, mask everything that follows.
            let inner = next_code_text(tokens, &code, k + 1) == Some("!");
            let bracket_at = if inner { k + 2 } else { k + 1 };
            if next_code_text(tokens, &code, bracket_at) == Some("[") {
                let close = match matching_close(tokens, &code, bracket_at, "[", "]") {
                    Some(c) => c,
                    None => break,
                };
                let attr_marks_test = attr_is_test(tokens, &code, bracket_at + 1, close);
                if attr_marks_test {
                    if inner {
                        for m in masked.iter_mut().skip(i) {
                            *m = true;
                        }
                        return masked;
                    }
                    // Mask from the attribute through the end of the
                    // item it annotates.
                    let item_end = item_end_after(tokens, &code, close + 1);
                    for &ci in code.iter().take(item_end.min(code.len())).skip(k) {
                        masked[ci] = true;
                    }
                    // Also mask any comments physically inside the span.
                    mask_comment_span(tokens, &mut masked, i, code.get(item_end.saturating_sub(1)));
                    k = item_end;
                    continue;
                }
                k = close + 1;
                continue;
            }
        }
        if t.kind == TokenKind::Ident && t.text == "macro_rules" {
            // macro_rules! name { … } — mask the whole definition.
            let mut j = k + 1;
            while j < code.len() && tokens[code[j]].text != "{" {
                j += 1;
            }
            if let Some(close) = matching_close(tokens, &code, j, "{", "}") {
                for &ci in code.iter().take(close + 1).skip(k) {
                    masked[ci] = true;
                }
                mask_comment_span(tokens, &mut masked, i, code.get(close));
                k = close + 1;
                continue;
            }
            break;
        }
        k += 1;
    }
    masked
}

/// Mask comment tokens lying between code token `start_tok` and the
/// code token index `end` (inclusive), so doc-rule lookbacks inside
/// masked items stay consistent.
fn mask_comment_span(tokens: &[Token], masked: &mut [bool], start_tok: usize, end: Option<&usize>) {
    if let Some(&end_tok) = end {
        for (m, _) in masked
            .iter_mut()
            .zip(tokens.iter())
            .take(end_tok + 1)
            .skip(start_tok)
        {
            *m = true;
        }
    }
}

/// Text of the code token at logical position `k`, if any.
fn next_code_text<'t>(tokens: &'t [Token], code: &[usize], k: usize) -> Option<&'t str> {
    code.get(k).map(|&i| tokens[i].text.as_str())
}

/// Given `code[open_k]` == the opening delimiter, find the logical
/// index of its matching close, honoring nesting of the same pair.
fn matching_close(
    tokens: &[Token],
    code: &[usize],
    open_k: usize,
    open: &str,
    close: &str,
) -> Option<usize> {
    let mut depth = 0usize;
    for (k, &i) in code.iter().enumerate().skip(open_k) {
        let text = tokens[i].text.as_str();
        if text == open {
            depth += 1;
        } else if text == close {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Does the attribute body `code[start..end]` mark its item as
/// test-only? True for `test`, `cfg(test)`, `cfg(all(test, …))`;
/// false for `cfg(not(test))` and for `cfg_attr(…)` (which gates an
/// attribute, not the item).
fn attr_is_test(tokens: &[Token], code: &[usize], start: usize, end: usize) -> bool {
    let texts: Vec<&str> = code[start..end]
        .iter()
        .map(|&i| tokens[i].text.as_str())
        .collect();
    match texts.first() {
        Some(&"test") => true,
        Some(&"cfg") => {
            let mut depth_not = 0usize;
            let mut not_depth_stack: Vec<usize> = Vec::new();
            let mut paren_depth = 0usize;
            for w in texts.windows(1).skip(1) {
                let t = w[0];
                match t {
                    "(" => paren_depth += 1,
                    ")" => {
                        paren_depth = paren_depth.saturating_sub(1);
                        if not_depth_stack.last() == Some(&paren_depth) {
                            not_depth_stack.pop();
                            depth_not -= 1;
                        }
                    }
                    "not" => {
                        not_depth_stack.push(paren_depth);
                        depth_not += 1;
                    }
                    "test" if depth_not == 0 => return true,
                    _ => {}
                }
            }
            false
        }
        _ => false,
    }
}

/// Find the logical index one past the end of the item starting at
/// `code[k]`: either past the matching `}` of its first body brace, or
/// past the terminating `;` for braceless items.
fn item_end_after(tokens: &[Token], code: &[usize], k: usize) -> usize {
    let mut j = k;
    let mut angle = 0isize;
    while j < code.len() {
        let text = tokens[code[j]].text.as_str();
        match text {
            "{" => {
                return match matching_close(tokens, code, j, "{", "}") {
                    Some(close) => close + 1,
                    None => code.len(),
                };
            }
            ";" if angle <= 0 => return j + 1,
            "<" => angle += 1,
            ">" => angle -= 1,
            // A nested attribute on the item itself (e.g. `#[cfg(test)]
            // #[derive(..)] struct S;`) — skip its brackets.
            "[" => {
                j = matching_close(tokens, code, j, "[", "]").unwrap_or(code.len());
            }
            _ => {}
        }
        j += 1;
    }
    code.len()
}

/// Collect `bios-audit` allow-comments. Malformed waivers (missing
/// reason) are reported as findings immediately and not honored.
fn collect_waivers(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) -> Vec<WaiverRecord> {
    let mut waivers = Vec::new();
    for t in tokens {
        if !matches!(t.kind, TokenKind::LineComment { doc: false }) {
            continue;
        }
        let Some(at) = t.text.find("bios-audit:") else {
            continue;
        };
        let rest = &t.text[at + "bios-audit:".len()..];
        let Some(open) = rest.find("allow(") else {
            continue;
        };
        let after = &rest[open + "allow(".len()..];
        let Some(close) = after.find(')') else {
            findings.push(Finding {
                path: path.to_string(),
                line: t.line,
                col: t.col,
                rule: Rule::WWaiver,
                message: "malformed waiver: unclosed allow(".to_string(),
            });
            continue;
        };
        let rule = after[..close].trim().to_string();
        let tail = &after[close + 1..];
        // The reason follows an em-dash, double-hyphen, or hyphen.
        let reason = ["—", "--", "-"]
            .iter()
            .find_map(|sep| tail.split_once(sep).map(|(_, r)| r.trim().to_string()))
            .unwrap_or_default();
        if reason.is_empty() {
            findings.push(Finding {
                path: path.to_string(),
                line: t.line,
                col: t.col,
                rule: Rule::WWaiver,
                message: format!(
                    "waiver allow({rule}) is missing its reason — write \
                     `bios-audit: allow({rule}) — <why this is sound>`"
                ),
            });
            continue;
        }
        waivers.push(WaiverRecord {
            path: path.to_string(),
            line: t.line,
            rule,
            reason,
            used: false,
        });
    }
    waivers
}

/// The lexical pattern rules: the D family, through the matcher
/// G-taint shares ([`banned_api`]), and the F family.
fn run_token_rules(
    path: &str,
    tokens: &[Token],
    code: &[usize],
    masked: &[bool],
    config: &Config,
    findings: &mut Vec<Finding>,
) {
    for (k, &i) in code.iter().enumerate() {
        if masked[i] {
            continue;
        }
        let t = &tokens[i];
        let at = |k: Option<usize>| k.and_then(|k| code.get(k)).map(|&j| &tokens[j]);
        let (prev, next, next2) = (at(k.checked_sub(1)), at(Some(k + 1)), at(Some(k + 2)));
        let (next_text, next2_text) = (
            next.map(|t| t.text.as_str()),
            next2.map(|t| t.text.as_str()),
        );

        let hit = match t.kind {
            TokenKind::Ident => match banned_api(&t.text, next_text, next2_text) {
                Some((rule, api)) => Some((rule, banned_message(rule, api))),
                None if t.text == "as" && next_text == Some("f32") => Some((
                    Rule::FNarrow,
                    "`as f32` narrowing in solver/analytics code — keep f64 \
                     through the numeric path"
                        .to_string(),
                )),
                None => None,
            },
            TokenKind::Punct if t.text == "==" || t.text == "!=" => {
                let is_float =
                    |tok: Option<&Token>| tok.is_some_and(|t| t.kind == TokenKind::Float);
                // `x == 0.0`, `0.0 == x`, and `x == -1.0`.
                let neg_float = next_text == Some("-") && is_float(next2);
                (is_float(prev) || is_float(next) || neg_float).then(|| {
                    (
                        Rule::FEq,
                        format!(
                            "`{}` against a float literal — use an epsilon \
                             comparison (bios_units::approx)",
                            t.text
                        ),
                    )
                })
            }
            _ => None,
        };
        if let Some((rule, message)) = hit {
            if config.in_scope(rule, path) {
                findings.push(Finding {
                    path: path.to_string(),
                    line: t.line,
                    col: t.col,
                    rule,
                    message,
                });
            }
        }
    }
}

/// The D-family finding message for a banned API.
fn banned_message(rule: Rule, api: &str) -> String {
    match rule {
        Rule::DHash => format!(
            "`{api}` in a digest-path module — iteration order is \
             nondeterministic; use `BTree{}`",
            api.trim_start_matches("Hash")
        ),
        Rule::DTime => format!(
            "`{api}()` in a digest-path module — wall-clock reads \
             make replay nondeterministic"
        ),
        _ => format!(
            "`{api}()` in a digest-path module — thread \
             identity must not reach digested bytes"
        ),
    }
}

/// `U-doc`: every `pub fn` in a physics crate must have a doc comment
/// that names physical units (or says the value is dimensionless).
fn run_doc_rule(
    path: &str,
    tokens: &[Token],
    code: &[usize],
    masked: &[bool],
    config: &Config,
    findings: &mut Vec<Finding>,
) {
    if !config.in_scope(Rule::UDoc, path) {
        return;
    }
    for (k, &i) in code.iter().enumerate() {
        if masked[i] {
            continue;
        }
        let t = &tokens[i];
        // Bare `pub fn` only: `pub(crate) fn` is not public API.
        if !(t.kind == TokenKind::Ident && t.text == "pub") {
            continue;
        }
        if next_code_text(tokens, code, k + 1) != Some("fn") {
            continue;
        }
        let fn_name = next_code_text(tokens, code, k + 2).unwrap_or("?");
        let doc = doc_text_above(tokens, i);
        let Some(text) = doc else {
            findings.push(Finding {
                path: path.to_string(),
                line: t.line,
                col: t.col,
                rule: Rule::UDoc,
                message: format!("public fn `{fn_name}` has no doc comment"),
            });
            continue;
        };
        // Unit naming is only demanded when the signature passes bare
        // floats around; typed-quantity signatures carry their units.
        let (has_bare_float, sig_names_units) = signature_profile(tokens, code, k, config);
        if !has_bare_float || sig_names_units {
            continue;
        }
        let doc_names_units = config
            .unit_vocabulary
            .iter()
            .any(|w| text.contains(w.as_str()));
        if !doc_names_units {
            findings.push(Finding {
                path: path.to_string(),
                line: t.line,
                col: t.col,
                rule: Rule::UDoc,
                message: format!(
                    "public fn `{fn_name}` passes bare floats but neither its doc \
                     comment nor its signature names physical units (or says the \
                     value is dimensionless)"
                ),
            });
        }
    }
}

/// Scan the signature tokens of the `fn` starting at logical index `k`
/// (the `pub` token) up to the body `{` or terminating `;`. Returns
/// `(has_bare_float, names_units)`.
fn signature_profile(tokens: &[Token], code: &[usize], k: usize, config: &Config) -> (bool, bool) {
    let mut has_float = false;
    let mut names_units = false;
    let mut depth = 0usize;
    for &i in code.iter().skip(k) {
        let t = &tokens[i];
        match t.text.as_str() {
            "{" | ";" if depth == 0 => break,
            "(" | "[" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            _ => {}
        }
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "f64" || t.text == "f32" {
            has_float = true;
            continue;
        }
        let lower = t.text.to_lowercase();
        if config
            .signature_unit_fragments
            .iter()
            .any(|f| lower.contains(f.as_str()))
        {
            names_units = true;
        }
    }
    (has_float, names_units)
}

/// Concatenated text of the doc comments immediately above token `i`,
/// skipping interleaved attributes. `None` when there is no doc.
fn doc_text_above(tokens: &[Token], i: usize) -> Option<String> {
    let mut docs: Vec<&str> = Vec::new();
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        if t.is_doc_comment() {
            docs.push(t.text.as_str());
            continue;
        }
        if t.is_comment() {
            // A plain comment between doc and item is fine; keep looking.
            continue;
        }
        if t.text == "]" {
            // Walk back over an attribute `#[…]`.
            let mut depth = 1usize;
            while j > 0 && depth > 0 {
                j -= 1;
                match tokens[j].text.as_str() {
                    "]" => depth += 1,
                    "[" => depth -= 1,
                    _ => {}
                }
            }
            // Consume the leading `#` (and `!` for inner attributes).
            if j > 0 && tokens[j - 1].text == "#" {
                j -= 1;
            } else if j > 1 && tokens[j - 1].text == "!" && tokens[j - 2].text == "#" {
                j -= 2;
            }
            continue;
        }
        break;
    }
    if docs.is_empty() {
        None
    } else {
        Some(docs.join("\n"))
    }
}

/// Apply waivers: each unused waiver suppresses the first finding of a
/// matching rule in the same file, on its own line or the line
/// directly below it.
fn apply_waivers(findings: &mut Vec<Finding>, waivers: &mut [WaiverRecord]) {
    for w in waivers.iter_mut() {
        let matches_rule = |f: &Finding| {
            f.rule != Rule::WWaiver
                && f.path == w.path
                && (w.rule == f.rule.id() || w.rule == f.rule.family())
        };
        let on_waived_line = |f: &Finding| f.line == w.line || f.line == w.line.saturating_add(1);
        if let Some(pos) = findings
            .iter()
            .position(|f| matches_rule(f) && on_waived_line(f))
        {
            findings.remove(pos);
            w.used = true;
        }
    }
}

// ---------------------------------------------------------------------------
// L family: lock & channel discipline
// ---------------------------------------------------------------------------

/// Run the L-family rules over every non-test function body.
///
/// * `L-lock`: no `.lock()`/`.recv()`/`.join()` call while a
///   `MutexGuard` binding is live in the same block. Guards are
///   tracked by a brace-depth automaton: a binding created by
///   `let g = ….lock()…`, `let Ok(g) = ….lock() else`, or a
///   `match ….lock() { Ok(g) => …` arm is live until `drop(g)`, the
///   end of its block, or (for match arms) the end of its arm.
/// * `L-send`: no `send` on a channel endpoint after an explicit
///   `drop` of its pair (`let (tx, rx) = …channel…`, `drop(rx)`,
///   `tx.send(…)` can only fail).
fn run_lock_rules(path: &str, tokens: &[Token], items: &[Item], findings: &mut Vec<Finding>) {
    for item in items {
        if item.test_only {
            continue;
        }
        match item.kind {
            ItemKind::Fn => {
                if let Some((start, end)) = item.body {
                    lock_scan_body(path, tokens, start, end, findings);
                }
            }
            ItemKind::Impl | ItemKind::Trait | ItemKind::Mod => {
                run_lock_rules(path, tokens, &item.children, findings);
            }
            ItemKind::Use => {}
        }
    }
}

/// A live `MutexGuard` binding inside the automaton.
struct LiveGuard {
    name: String,
    /// Brace depth the binding lives at; it dies when depth drops
    /// below this.
    depth: usize,
    /// Match-arm bindings additionally die at a `,` on their own depth.
    arm: bool,
}

/// The blocking calls `L-lock` bans under a live guard.
const BLOCKING_CALLS: &[&str] = &["lock", "recv", "recv_timeout", "join"];

/// The guard automaton over one function body (raw-token range).
fn lock_scan_body(
    path: &str,
    tokens: &[Token],
    start: usize,
    end: usize,
    findings: &mut Vec<Finding>,
) {
    let code: Vec<usize> = (start..end.min(tokens.len()))
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut depth: usize = 0;
    let mut paren: usize = 0;
    // Channel endpoint pairs (`tx` → `rx` and back) and explicitly
    // dropped endpoints, for L-send.
    let mut pairs: std::collections::BTreeMap<String, String> = std::collections::BTreeMap::new();
    let mut dropped: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();

    let text = |k: usize| -> Option<&str> { code.get(k).map(|&i| tokens[i].text.as_str()) };

    for k in 0..code.len() {
        let i = code[k];
        let t = &tokens[i];
        match t.text.as_str() {
            "{" => {
                depth += 1;
                continue;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
                continue;
            }
            "(" => {
                paren += 1;
                continue;
            }
            ")" => {
                paren = paren.saturating_sub(1);
                continue;
            }
            "," if paren == 0 => {
                // End of a match arm: arm-scoped guards at this depth die.
                guards.retain(|g| !(g.arm && g.depth == depth));
                continue;
            }
            _ => {}
        }
        if t.kind != TokenKind::Ident {
            continue;
        }

        // `let (tx, rx) = …channel…;` — record the endpoint pair.
        if t.text == "let" && text(k + 1) == Some("(") {
            if let Some((a, b, after)) = channel_pair(tokens, &code, k + 2) {
                if statement_mentions_channel(tokens, &code, after) {
                    pairs.insert(a.clone(), b.clone());
                    pairs.insert(b, a);
                }
            }
            continue;
        }

        // `drop(x)` — kill a guard or mark a channel endpoint dropped.
        if t.text == "drop" && text(k + 1) == Some("(") {
            if let (Some(arg), Some(")")) = (text(k + 2).map(str::to_string), text(k + 3)) {
                guards.retain(|g| g.name != arg);
                if pairs.contains_key(&arg) {
                    dropped.insert(arg);
                }
            }
            continue;
        }

        // `x.send(…)` after `drop` of x's pair.
        if t.text == "send" && text(k + 1) == Some("(") && k >= 2 && text(k - 1) == Some(".") {
            if let Some(endpoint) = code
                .get(k - 2)
                .map(|&j| &tokens[j])
                .filter(|e| e.kind == TokenKind::Ident)
            {
                if let Some(pair) = pairs.get(&endpoint.text) {
                    if dropped.contains(pair) {
                        findings.push(Finding {
                            path: path.to_string(),
                            line: t.line,
                            col: t.col,
                            rule: Rule::LSend,
                            message: format!(
                                "`{}.send(..)` after its paired endpoint `{pair}` was \
                                 dropped — the send can only fail",
                                endpoint.text
                            ),
                        });
                    }
                }
            }
        }

        // Blocking calls under a live guard, and new guard bindings.
        if BLOCKING_CALLS.contains(&t.text.as_str())
            && text(k + 1) == Some("(")
            && k >= 1
            && text(k - 1) == Some(".")
        {
            if let Some(g) = guards.first() {
                findings.push(Finding {
                    path: path.to_string(),
                    line: t.line,
                    col: t.col,
                    rule: Rule::LLock,
                    message: format!(
                        "`.{}()` while MutexGuard `{}` is live in this block — \
                         release the guard (drop({})) before blocking",
                        t.text, g.name, g.name
                    ),
                });
            }
            if t.text == "lock" {
                if let Some(g) = lock_binding(tokens, &code, k, depth) {
                    guards.push(g);
                }
            }
        }
    }
}

/// Parse `a , b )` starting at logical index `k` (just past `let (`).
/// Returns the two idents and the index past the `)`.
fn channel_pair(tokens: &[Token], code: &[usize], k: usize) -> Option<(String, String, usize)> {
    let ident = |k: usize| -> Option<&Token> {
        code.get(k)
            .map(|&i| &tokens[i])
            .filter(|t| t.kind == TokenKind::Ident)
    };
    let text = |k: usize| -> Option<&str> { code.get(k).map(|&i| tokens[i].text.as_str()) };
    // Skip `mut` on either binding.
    let mut pos = k;
    if text(pos) == Some("mut") {
        pos += 1;
    }
    let a = ident(pos)?.text.clone();
    if text(pos + 1) != Some(",") {
        return None;
    }
    pos += 2;
    if text(pos) == Some("mut") {
        pos += 1;
    }
    let b = ident(pos)?.text.clone();
    if text(pos + 1) != Some(")") {
        return None;
    }
    Some((a, b, pos + 2))
}

/// Does the statement starting at logical index `k` (just past the
/// destructuring pattern) mention a channel constructor before its
/// terminating `;`?
fn statement_mentions_channel(tokens: &[Token], code: &[usize], k: usize) -> bool {
    for &i in code.iter().skip(k) {
        let t = &tokens[i];
        if t.text == ";" {
            return false;
        }
        if t.kind == TokenKind::Ident && (t.text == "channel" || t.text == "sync_channel") {
            return true;
        }
    }
    false
}

/// Find the binding a `.lock()` call at logical index `k` creates, if
/// any: first look *backward* for the `let` of the enclosing
/// statement, then (for `match ….lock() { Ok(g) => …`) *forward* into
/// the first match arm.
fn lock_binding(tokens: &[Token], code: &[usize], k: usize, depth: usize) -> Option<LiveGuard> {
    const PATTERN_NOISE: &[&str] = &["Ok", "Some", "Err", "(", ")", "mut", "&", "ref"];
    let text = |k: usize| -> Option<&str> { code.get(k).map(|&i| tokens[i].text.as_str()) };

    // Backward: stop at statement/block boundaries; a `match` or `=>`
    // before the `let` means the lock result is consumed by a match,
    // so the binding (if any) is in an arm pattern instead.
    let mut j = k;
    let mut backward_let: Option<usize> = None;
    while j > 0 {
        j -= 1;
        match text(j) {
            Some(";") | Some("{") | Some("}") | Some("=>") | Some("match") => break,
            Some("let") => {
                backward_let = Some(j);
                break;
            }
            _ => {}
        }
    }
    if let Some(l) = backward_let {
        // `if let` / `while let` scope the binding to the block that
        // follows, one brace deeper than the statement itself.
        let conditional = l > 0 && matches!(text(l - 1), Some("if") | Some("while"));
        let bind_depth = if conditional { depth + 1 } else { depth };
        // First pattern ident after `let`, skipping `Ok(`/`Some(`/`mut`.
        let mut p = l + 1;
        while let Some(tx) = text(p) {
            if PATTERN_NOISE.contains(&tx) {
                p += 1;
                continue;
            }
            let tok = &tokens[code[p]];
            if tok.kind == TokenKind::Ident {
                return Some(LiveGuard {
                    name: tok.text.clone(),
                    depth: bind_depth,
                    arm: false,
                });
            }
            return None;
        }
        return None;
    }

    // Forward: `….lock() { Ok(g) => …` — skip to the `)` closing the
    // lock call, then look for a brace-opened match with an Ok/Err arm
    // binding within the next few tokens.
    let close = k + 2; // `lock ( )` — the call has no arguments.
    if text(close) != Some(")") {
        return None;
    }
    if text(close + 1) != Some("{") {
        return None;
    }
    let mut p = close + 2;
    let limit = close + 10;
    while p < limit {
        match text(p) {
            Some("Ok") | Some("Some") if text(p + 1) == Some("(") => {
                let mut q = p + 2;
                if text(q) == Some("mut") {
                    q += 1;
                }
                let tok = code.get(q).map(|&i| &tokens[i])?;
                if tok.kind == TokenKind::Ident && text(q + 1) == Some(")") {
                    return Some(LiveGuard {
                        name: tok.text.clone(),
                        depth: depth + 1,
                        arm: true,
                    });
                }
                return None;
            }
            Some("=>") | None => return None,
            _ => p += 1,
        }
    }
    None
}
