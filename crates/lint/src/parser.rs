//! A lightweight item/block-level parser over the token stream.
//!
//! The flow-aware rule families (paired-resource, error-sink) need
//! *structure*: which function a call lives in, which branch arms exist,
//! whether a call's result is dropped, what a `match` arm's pattern
//! names. This module recovers exactly that much structure and no more —
//! the file's functions, each with a CFG-ish block tree — from the lexed
//! tokens.
//!
//! The parser is deliberately loss-tolerant: it never fails, it only
//! degrades. Unrecognized constructs parse as opaque statements whose
//! calls are still collected, so a rule sees every call even when the
//! surrounding control flow was too exotic to model. The recovered tree
//! is an *over-approximation of straight-line execution*: anything the
//! parser cannot prove branchy is treated as sequential, which keeps
//! the all-paths checks conservative in the direction of reporting (a
//! false positive can be reviewed and suppressed; a silent false
//! negative cannot be audited).

use crate::lexer::{Token, TokenKind};

/// One parsed source file: its functions.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every `fn` item found, in source order (methods included;
    /// closures are inlined into their parent's body tree).
    pub fns: Vec<FnInfo>,
}

/// One function item with its recovered body tree.
#[derive(Debug)]
pub struct FnInfo {
    /// Bare function name.
    pub name: String,
    /// Inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: bool,
    /// The recovered body tree (empty for bodyless trait decls).
    pub body: Block,
}

/// A `{ … }` region: a sequence of flow nodes.
#[derive(Debug, Default)]
pub struct Block {
    /// Nodes in source order.
    pub nodes: Vec<Node>,
}

/// What kind of control-flow exit a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// `return …;`
    Return,
    /// `expr?` — exits only on the error path.
    Question,
    /// `break` / `continue` — exits the innermost loop, not the fn.
    LoopExit,
}

/// One node of the flow tree.
#[derive(Debug)]
pub enum Node {
    /// A function/method/macro call.
    Call(Call),
    /// A control-flow exit.
    Exit(ExitKind),
    /// `if`/`match` with one block per arm, in source order. For `if`
    /// without `else`, a synthetic empty fall-through arm is appended so
    /// "condition false" still counts as a path that skips the body. A
    /// single-arm branch is the synthetic wrapper for a hoisted condition
    /// sequence: all paths traverse its one arm.
    Branch(Vec<Arm>),
    /// `loop`/`while`/`for` body (treated as may-run-zero-times).
    Loop(Block),
    /// A closure body: *deferred* code — not on the enclosing function's
    /// execution path, but still scanned by file-level analyses.
    Closure(Block),
    /// A panic-capable site (`.unwrap()`, `panic!`, …).
    Panic,
}

/// One arm of a [`Node::Branch`].
#[derive(Debug)]
pub struct Arm {
    /// Identifiers appearing in the pattern (`Err`, `Some`, binding
    /// names…); empty for `if` arms and the synthetic fall-through arm.
    pub pattern: Vec<String>,
    /// 1-based line the pattern (or arm body) starts on.
    pub line: u32,
    /// Arm body.
    pub body: Block,
    /// The arm's source body held no tokens at all (`{}`/`()`): an
    /// explicit do-nothing, as opposed to a value-mapping expression
    /// (`Err(_) => 0`) whose literal leaves no flow nodes behind.
    pub empty: bool,
}

/// A call site with just enough argument structure for the rules.
#[derive(Debug)]
pub struct Call {
    /// Called name: method name, last path segment, or macro name.
    pub name: String,
    /// `recv.name(…)` → receiver ident (empty string for a computed
    /// receiver like `foo().name(…)`); `Type::name(…)` → `Type`.
    pub qualifier: Option<String>,
    /// `true` for `name!(…)` macro syntax.
    pub is_macro: bool,
    /// 1-based line of the name token.
    pub line: u32,
    /// `let NAME = …` binding receiving this statement's value
    /// (`"_"` for `let _ =`).
    pub bound_to: Option<String>,
    /// The call's value is dropped: statement position, terminated by
    /// `;`, with no binding and no `return`.
    pub discarded: bool,
    /// The result flows onward: `return`/tail position, chained with
    /// `.`, propagated with `?`, or passed as an argument.
    pub consumed: bool,
    /// Number of top-level arguments.
    pub n_args: usize,
    /// First argument's last path segment, when it is a bare ident path.
    pub first_arg: Option<String>,
    /// Second argument's, likewise.
    pub second_arg: Option<String>,
}

/// Names that panic when reached.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Visits every node of the tree in source order, recursing into branch
/// arms, loop bodies, and closure bodies.
pub fn visit<'a>(block: &'a Block, f: &mut dyn FnMut(&'a Node)) {
    for n in &block.nodes {
        f(n);
        match n {
            Node::Branch(arms) => {
                for a in arms {
                    visit(&a.body, f);
                }
            }
            Node::Loop(body) | Node::Closure(body) => visit(body, f),
            _ => {}
        }
    }
}

/// Significant-token view: comments stripped, original lines kept.
struct Sig<'a> {
    toks: Vec<&'a Token>,
    in_test: Vec<bool>,
}

/// Parses one file's tokens into its item inventory.
pub fn parse_file(tokens: &[Token], in_test: &[bool]) -> ParsedFile {
    let mut sig = Sig {
        toks: Vec::with_capacity(tokens.len()),
        in_test: Vec::with_capacity(tokens.len()),
    };
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_comment() {
            sig.toks.push(t);
            sig.in_test.push(in_test.get(i).copied().unwrap_or(false));
        }
    }
    let mut out = ParsedFile::default();
    items(&sig, &mut out);
    out
}

fn text<'s>(sig: &'s Sig, i: usize) -> &'s str {
    sig.toks.get(i).map_or("", |t| t.text.as_str())
}

fn is_ident(sig: &Sig, i: usize) -> bool {
    sig.toks.get(i).is_some_and(|t| t.kind == TokenKind::Ident)
}

fn line(sig: &Sig, i: usize) -> u32 {
    sig.toks.get(i).map_or(0, |t| t.line)
}

/// Finds the matching close delimiter for the open at `i` (all of
/// `(`/`[`/`{` counted together, which is safe on balanced streams).
/// Returns the index of the close, or `end`.
fn matching(sig: &Sig, i: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < end {
        match text(sig, j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    end
}

/// Scans the file for `fn` items, wherever they sit (`mod`, `impl` and
/// `trait` bodies are walked through like any other tokens).
fn items(sig: &Sig, out: &mut ParsedFile) {
    let end = sig.toks.len();
    let mut i = 0;
    while i < end {
        match text(sig, i) {
            // Attributes never contain items; skip them wholesale so
            // `#[derive(…)]` contents cannot be misread.
            "#" => {
                let mut j = i + 1;
                if text(sig, j) == "!" {
                    j += 1;
                }
                if text(sig, j) == "[" {
                    i = matching(sig, j, end) + 1;
                } else {
                    i += 1;
                }
            }
            "fn" if is_ident(sig, i + 1) => {
                // Signature runs to the body `{` (or `;` for trait
                // declarations) at paren/bracket depth 0.
                let mut j = i + 2;
                let mut depth = 0i32;
                let mut body = Block::default();
                while j < end {
                    match text(sig, j) {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => {
                            let close = matching(sig, j, end);
                            body = block(sig, j + 1, close);
                            j = close;
                            break;
                        }
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                out.fns.push(FnInfo {
                    name: text(sig, i + 1).to_string(),
                    in_test: sig.in_test.get(i).copied().unwrap_or(false),
                    body,
                });
                i = j + 1;
            }
            _ => i += 1,
        }
    }
}

/// Token texts after which a `|` starts a closure, not bitwise-or.
fn closure_position(prev: &str) -> bool {
    matches!(
        prev,
        "(" | "," | "=" | "{" | ";" | "return" | "move" | ">" | "[" | ":" | "else" | "|"
    ) || prev.is_empty()
}

/// What follows a call's closing `)` — decides where its value goes.
fn call_disposition(sig: &Sig, close: usize, end: usize) -> (bool, bool) {
    // → (discarded, consumed)
    match text(sig, close + 1) {
        ";" => (true, false),
        // Chained, propagated, passed as an argument, or tail position
        // (the `}`/region-end case): value flows onward.
        "." | "?" | "," | ")" | "}" => (false, true),
        _ if close + 1 >= end => (false, true),
        _ => (false, false),
    }
}

/// Parses the statements of `[start, end)` into a flow tree.
fn block(sig: &Sig, start: usize, end: usize) -> Block {
    let mut nodes = Vec::new();
    let mut i = start;
    // Per-statement context.
    let mut binding: Option<String> = None;
    let mut in_return = false;
    let mut in_assign = false;
    let mut prev_text = String::new();

    while i < end {
        let t = text(sig, i);
        match t {
            ";" => {
                binding = None;
                in_return = false;
                in_assign = false;
                i += 1;
            }
            // A bare `=` (not `==`/`=>`/`!=`/`<=`/`>=`) marks an
            // assignment: the statement's value lands somewhere even
            // though no `let` binding names it.
            "=" if text(sig, i + 1) != "="
                && text(sig, i + 1) != ">"
                && !matches!(prev_text.as_str(), "=" | "!" | "<" | ">") =>
            {
                in_assign = true;
                i += 1;
            }
            // Statement-level attributes (`#[allow(…)]`): skip so their
            // contents are not misread as calls.
            "#" => {
                let mut j = i + 1;
                if text(sig, j) == "!" {
                    j += 1;
                }
                if text(sig, j) == "[" {
                    i = matching(sig, j, end) + 1;
                } else {
                    i += 1;
                }
            }
            "let" => {
                let mut j = i + 1;
                if text(sig, j) == "mut" {
                    j += 1;
                }
                if text(sig, j) == "_" && text(sig, j + 1) == "=" {
                    // `let _ = …;` — the value is thrown away.
                    binding = Some("_".to_string());
                    i = j + 2;
                } else if is_ident(sig, j)
                    && !matches!(text(sig, j), "Some" | "Ok" | "Err")
                    && matches!(text(sig, j + 1), "=" | ":")
                {
                    binding = Some(text(sig, j).to_string());
                    i = j + 1;
                } else {
                    i += 1;
                }
            }
            "return" => {
                in_return = true;
                nodes.push(Node::Exit(ExitKind::Return));
                i += 1;
            }
            "break" | "continue" => {
                nodes.push(Node::Exit(ExitKind::LoopExit));
                i += 1;
            }
            "?" => {
                nodes.push(Node::Exit(ExitKind::Question));
                i += 1;
            }
            "if" => {
                let (node, next) = parse_if(sig, i, end);
                nodes.push(node);
                i = next;
                binding = None;
                in_return = false;
            }
            "match" => {
                let (node, next) = parse_match(sig, i, end);
                nodes.push(node);
                i = next;
                binding = None;
                in_return = false;
            }
            "loop" | "while" | "for" => {
                let mut j = i + 1;
                let mut depth = 0i32;
                while j < end {
                    match text(sig, j) {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                // Head (condition/iterator) calls run before the body.
                let head = block(sig, i + 1, j);
                nodes.extend(head.nodes);
                let close = matching(sig, j, end);
                nodes.push(Node::Loop(block(sig, j + 1, close)));
                i = close + 1;
                binding = None;
                in_return = false;
            }
            "|" if closure_position(&prev_text) => {
                // Closure: `|args| expr-or-block` / `|| …`.
                let mut j = i + 1;
                let mut depth = 0i32;
                while j < end {
                    match text(sig, j) {
                        "(" | "[" | "<" => depth += 1,
                        ")" | "]" | ">" => depth -= 1,
                        "|" if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let body_start = j + 1;
                let (body, next) = if text(sig, body_start) == "{" {
                    let close = matching(sig, body_start, end);
                    (block(sig, body_start + 1, close), close + 1)
                } else {
                    // Expression body: runs to `,`/`;` or an unmatched
                    // closer at relative depth 0.
                    let mut k = body_start;
                    let mut d = 0i32;
                    while k < end {
                        match text(sig, k) {
                            "(" | "[" | "{" => d += 1,
                            ")" | "]" | "}" if d == 0 => break,
                            ")" | "]" | "}" => d -= 1,
                            "," | ";" if d == 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    (block(sig, body_start, k), k)
                };
                nodes.push(Node::Closure(body));
                i = next;
            }
            "{" => {
                // Plain nested block (or struct literal): inline.
                let close = matching(sig, i, end);
                let inner = block(sig, i + 1, close);
                nodes.extend(inner.nodes);
                i = close + 1;
            }
            _ if is_ident(sig, i) => {
                if PANIC_MACROS.contains(&t) && text(sig, i + 1) == "!" {
                    nodes.push(Node::Panic);
                    i += 1;
                    prev_text = "!".to_string();
                    continue;
                }
                if PANIC_METHODS.contains(&t) && prev_text == "." && text(sig, i + 1) == "(" {
                    nodes.push(Node::Panic);
                }
                let bang_call = text(sig, i + 1) == "!" && text(sig, i + 2) == "(";
                let plain_call = text(sig, i + 1) == "(";
                if plain_call || bang_call {
                    let open = if bang_call { i + 2 } else { i + 1 };
                    let qualifier = call_qualifier(sig, i);
                    let close = matching(sig, open, end);
                    let args = split_args(sig, open, close);
                    let (discarded, consumed) = call_disposition(sig, close, end);
                    let first_arg = args.first().and_then(|&(a, b)| arg_path(sig, a, b));
                    let second_arg = args.get(1).and_then(|&(a, b)| arg_path(sig, a, b));
                    nodes.push(Node::Call(Call {
                        name: t.to_string(),
                        qualifier,
                        is_macro: bang_call,
                        line: line(sig, i),
                        bound_to: binding.clone(),
                        discarded: binding.is_none() && !in_return && !in_assign && discarded,
                        consumed: in_return || in_assign || consumed,
                        n_args: args.len(),
                        first_arg,
                        second_arg,
                    }));
                    // Parse the argument region so nested calls and
                    // closures are seen.
                    let inner = block(sig, open + 1, close);
                    nodes.extend(inner.nodes);
                    i = close + 1;
                } else {
                    i += 1;
                }
            }
            _ => {
                i += 1;
            }
        }
        prev_text = text(sig, i.wrapping_sub(1)).to_string();
    }
    Block { nodes }
}

/// Receiver/qualifier of the call whose name sits at `i`.
fn call_qualifier(sig: &Sig, i: usize) -> Option<String> {
    if i >= 2 && text(sig, i - 1) == "." && is_ident(sig, i - 2) {
        return Some(text(sig, i - 2).to_string());
    }
    if i >= 3 && text(sig, i - 1) == ":" && text(sig, i - 2) == ":" && is_ident(sig, i - 3) {
        return Some(text(sig, i - 3).to_string());
    }
    if i >= 1 && text(sig, i - 1) == "." {
        // `foo().bar(…)` — method call on a computed receiver.
        return Some(String::new());
    }
    None
}

/// Splits `(open, close)` at top-level commas into argument spans.
fn split_args(sig: &Sig, open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut args = Vec::new();
    let mut depth = 0i32;
    let mut s = open + 1;
    let mut j = open + 1;
    while j < close {
        match text(sig, j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => {
                args.push((s, j));
                s = j + 1;
            }
            _ => {}
        }
        j += 1;
    }
    if s < close {
        args.push((s, close));
    }
    args
}

/// A span's last path segment when it is a bare ident path.
fn arg_path(sig: &Sig, a: usize, b: usize) -> Option<String> {
    let mut last = None;
    for k in a..b {
        match sig.toks.get(k).map(|t| t.kind) {
            Some(TokenKind::Ident) => last = Some(text(sig, k)),
            Some(TokenKind::Punct) if text(sig, k) == ":" => {}
            _ => return None,
        }
    }
    last.map(str::to_string)
}

/// Wraps hoisted pre-branch nodes and the branch itself into a single
/// transparent node (a one-arm `Seq` branch: all paths traverse it).
fn with_prelude(mut prelude: Vec<Node>, arms: Vec<Arm>, at: u32) -> Node {
    let branch = Node::Branch(arms);
    if prelude.is_empty() {
        return branch;
    }
    prelude.push(branch);
    Node::Branch(vec![Arm {
        pattern: Vec::new(),
        line: at,
        body: Block { nodes: prelude },
        empty: false,
    }])
}

/// Parses an `if` chain starting at `i`; returns the node and the index
/// just past the chain.
fn parse_if(sig: &Sig, i: usize, end: usize) -> (Node, usize) {
    let if_line = line(sig, i);
    let mut arms = Vec::new();
    let mut cond_nodes = Vec::new();
    let mut j = i;
    let mut has_else = false;
    loop {
        // `j` sits on `if`; the condition runs to the `{` at depth 0.
        let mut k = j + 1;
        let mut depth = 0i32;
        while k < end {
            match text(sig, k) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        // Condition calls execute before the branch: hoist them.
        cond_nodes.extend(block(sig, j + 1, k).nodes);
        let close = matching(sig, k, end);
        arms.push(Arm {
            pattern: Vec::new(),
            line: line(sig, k),
            body: block(sig, k + 1, close),
            empty: close == k + 1,
        });
        if text(sig, close + 1) == "else" {
            if text(sig, close + 2) == "if" {
                j = close + 2;
                continue;
            }
            if text(sig, close + 2) == "{" {
                let eb = matching(sig, close + 2, end);
                arms.push(Arm {
                    pattern: Vec::new(),
                    line: line(sig, close + 2),
                    body: block(sig, close + 3, eb),
                    empty: eb == close + 3,
                });
                has_else = true;
                j = eb;
                break;
            }
        }
        j = close;
        break;
    }
    if !has_else {
        // The condition-false path runs nothing.
        arms.push(Arm {
            pattern: Vec::new(),
            line: if_line,
            body: Block::default(),
            empty: true,
        });
    }
    (with_prelude(cond_nodes, arms, if_line), j + 1)
}

/// Parses a `match` starting at `i`; returns the node and the index
/// just past it.
fn parse_match(sig: &Sig, i: usize, end: usize) -> (Node, usize) {
    let m_line = line(sig, i);
    // Scrutinee runs to the `{` at depth 0.
    let mut k = i + 1;
    let mut depth = 0i32;
    while k < end {
        match text(sig, k) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => break,
            _ => {}
        }
        k += 1;
    }
    let scrutinee = block(sig, i + 1, k).nodes;
    let close = matching(sig, k, end);
    let mut arms = Vec::new();
    let mut j = k + 1;
    while j < close {
        // Pattern: up to `=>` at depth 0 (guards included).
        let pat_start = j;
        let mut d = 0i32;
        let mut arrow = None;
        while j < close {
            match text(sig, j) {
                "(" | "[" | "{" => d += 1,
                ")" | "]" | "}" => d -= 1,
                "=" if d == 0 && text(sig, j + 1) == ">" => {
                    arrow = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(arrow) = arrow else { break };
        let mut pattern = Vec::new();
        for p in pat_start..arrow {
            if is_ident(sig, p) {
                pattern.push(text(sig, p).to_string());
            }
        }
        let pat_line = line(sig, pat_start);
        // Body: a block, or an expression to `,` at depth 0.
        let body_start = arrow + 2;
        let (body, next, empty) = if text(sig, body_start) == "{" {
            let b = matching(sig, body_start, close);
            (block(sig, body_start + 1, b), b + 1, b == body_start + 1)
        } else {
            let mut e = body_start;
            let mut d2 = 0i32;
            while e < close {
                match text(sig, e) {
                    "(" | "[" | "{" => d2 += 1,
                    ")" | "]" | "}" => d2 -= 1,
                    "," if d2 == 0 => break,
                    _ => {}
                }
                e += 1;
            }
            // `()` is an explicit unit do-nothing body.
            let unit = e == body_start + 2 && text(sig, body_start) == "(";
            (block(sig, body_start, e), e, e == body_start || unit)
        };
        arms.push(Arm {
            pattern,
            line: pat_line,
            body,
            empty,
        });
        j = next;
        if text(sig, j) == "," {
            j += 1;
        }
    }
    (with_prelude(scrutinee, arms, m_line), close + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scopes::mark_test_regions;

    fn parse(src: &str) -> ParsedFile {
        let toks = lex(src);
        let in_test = mark_test_regions(&toks);
        parse_file(&toks, &in_test)
    }

    fn all_calls(b: &Block, out: &mut Vec<String>) {
        for n in &b.nodes {
            match n {
                Node::Call(c) => out.push(c.name.clone()),
                Node::Branch(arms) => {
                    for a in arms {
                        all_calls(&a.body, out);
                    }
                }
                Node::Loop(body) | Node::Closure(body) => all_calls(body, out),
                _ => {}
            }
        }
    }

    /// The first real `if`/`match` (more than the one synthetic arm).
    fn find_branch(b: &Block) -> Option<&Vec<Arm>> {
        for n in &b.nodes {
            if let Node::Branch(arms) = n {
                if arms.len() > 1 {
                    return Some(arms);
                }
                for a in arms {
                    if let Some(found) = find_branch(&a.body) {
                        return Some(found);
                    }
                }
            }
        }
        None
    }

    #[test]
    fn finds_fns_inside_impl_trait_and_mod_blocks() {
        let p = parse(
            "impl<T: Fn()> Foo<T> { pub fn a(&self) {} }\nfn b() {}\ntrait T { fn c(&self); }\n\
             mod m { impl Display for Widget { fn fmt(&self) {} } }\nstruct S { f: fn(u32) }",
        );
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c", "fmt"]);
    }

    #[test]
    fn const_fn_is_a_fn_not_a_const() {
        let p = parse("pub const fn zero() -> u32 { 0 }\nconst N: &str = \"x\";");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "zero");
    }

    #[test]
    fn match_arms_and_patterns() {
        let p =
            parse("fn f(r: Result<u32, E>) { match r { Ok(v) => { use_it(v); } Err(e) => {} } }");
        let arms = find_branch(&p.fns[0].body).expect("match");
        assert_eq!(arms.len(), 2);
        assert!(arms[0].pattern.contains(&"Ok".to_string()));
        assert!(arms[1].pattern.contains(&"Err".to_string()));
        assert!(arms[1].body.nodes.is_empty());
    }

    #[test]
    fn match_guards_do_not_split_arms() {
        let p = parse(
            "fn f(r: Result<u32, E>) { match r { Ok(v) if v > 0 => big(v), Ok(_) => small(), \
             Err(_) => bad(), } }",
        );
        let arms = find_branch(&p.fns[0].body).expect("match");
        assert_eq!(arms.len(), 3);
    }

    #[test]
    fn nested_closures_are_deferred() {
        let p = parse("fn f() { reg(move |sim| { inner(sim); }); after(); }");
        let top: Vec<_> = p.fns[0]
            .body
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::Call(c) => Some(c.name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(top, vec!["reg", "after"]);
        let mut all = Vec::new();
        all_calls(&p.fns[0].body, &mut all);
        assert!(all.contains(&"inner".to_string()), "{all:?}");
    }

    #[test]
    fn early_return_and_question_exits() {
        let p =
            parse("fn f() -> Result<(), E> { let x = g()?; if x { return Ok(()); } h(); Ok(()) }");
        fn exits(b: &Block, out: &mut Vec<ExitKind>) {
            for n in &b.nodes {
                match n {
                    Node::Exit(kind) => out.push(*kind),
                    Node::Branch(arms) => {
                        for a in arms {
                            exits(&a.body, out);
                        }
                    }
                    Node::Loop(body) | Node::Closure(body) => exits(body, out),
                    _ => {}
                }
            }
        }
        let mut kinds = Vec::new();
        exits(&p.fns[0].body, &mut kinds);
        assert!(kinds.contains(&ExitKind::Question));
        assert!(kinds.contains(&ExitKind::Return));
    }

    #[test]
    fn if_without_else_gets_fallthrough_arm() {
        let p = parse("fn f(c: bool) { if c { a(); } }");
        let arms = find_branch(&p.fns[0].body).expect("if");
        assert_eq!(arms.len(), 2, "then + synthetic fall-through");
        assert_eq!(arms.iter().filter(|a| a.body.nodes.is_empty()).count(), 1);
    }

    #[test]
    fn condition_calls_are_hoisted_before_the_branch() {
        let p = parse("fn f() { if check() { a(); } else { b(); } }");
        // The hoisted form is a Seq wrapper: check() then the If.
        let mut all = Vec::new();
        all_calls(&p.fns[0].body, &mut all);
        assert_eq!(all, vec!["check", "a", "b"]);
    }

    #[test]
    fn let_bindings_attach_to_calls() {
        let p = parse("fn f() { let w = client.watch(k); w.cancel(); }");
        let Node::Call(c) = &p.fns[0].body.nodes[0] else {
            panic!("expected call: {:?}", p.fns[0].body.nodes);
        };
        assert_eq!(c.name, "watch");
        assert_eq!(c.bound_to.as_deref(), Some("w"));
        assert_eq!(c.qualifier.as_deref(), Some("client"));
    }

    #[test]
    fn call_dispositions() {
        let p = parse("fn f() -> W { fire(); keep(acq()); acq() }");
        let calls: Vec<(&str, bool, bool)> = p.fns[0]
            .body
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::Call(c) => Some((c.name.as_str(), c.discarded, c.consumed)),
                _ => None,
            })
            .collect();
        // fire(); → discarded. keep(acq()) → keep's value dropped but
        // acq's flows into keep. Tail acq() → consumed.
        assert_eq!(
            calls,
            vec![
                ("fire", true, false),
                ("keep", true, false),
                ("acq", false, true),
                ("acq", false, true),
            ]
        );
    }

    #[test]
    fn let_underscore_is_a_discard() {
        let p = parse("fn f() { let _ = etcd.lease_grant(sim, ttl); keep(w, sim); }");
        let calls: Vec<&Call> = p.fns[0]
            .body
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::Call(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(calls[0].name, "lease_grant");
        assert_eq!(calls[0].bound_to.as_deref(), Some("_"));
        assert_eq!(calls[0].second_arg.as_deref(), Some("ttl"));
        assert_eq!(calls[1].bound_to, None);
        assert_eq!(calls[1].first_arg.as_deref(), Some("w"));
        assert_eq!(calls[1].n_args, 2);
    }

    #[test]
    fn panic_sites_are_recorded() {
        let p = parse("fn f(x: Option<u32>) {\n    let v = x.unwrap();\n    panic!(\"no\");\n}");
        let sites = p.fns[0]
            .body
            .nodes
            .iter()
            .filter(|n| matches!(n, Node::Panic))
            .count();
        assert_eq!(sites, 2);
    }

    #[test]
    fn attributes_do_not_produce_calls() {
        let p = parse("#[derive(Clone, Debug)]\nstruct S;\nfn f() {\n    #[allow(unused)]\n    let x = real();\n}");
        let mut all = Vec::new();
        all_calls(&p.fns[0].body, &mut all);
        assert_eq!(all, vec!["real"]);
    }

    #[test]
    fn test_fns_are_flagged() {
        let p = parse("#[cfg(test)]\nmod t { fn helper() {} }\nfn shipping() {}");
        let by_name: Vec<(String, bool)> =
            p.fns.iter().map(|f| (f.name.clone(), f.in_test)).collect();
        assert_eq!(
            by_name,
            vec![
                ("helper".to_string(), true),
                ("shipping".to_string(), false)
            ]
        );
    }
}
