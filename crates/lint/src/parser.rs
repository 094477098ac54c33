//! A forgiving recursive-descent parser over the token stream.
//!
//! The token-level rules (D001–D006) see one flat stream; the semantic
//! rules (D007–D010) need *structure*: which function a token lives in,
//! what an expression's call chain looks like, which argument of a call a
//! literal sits in. This module supplies exactly as much structure as
//! those rules consume and no more:
//!
//! * a **token-tree** layer (`(…)`, `[…]`, `{…}` groups, comments
//!   dropped) that makes bracket matching a non-problem for everything
//!   above it;
//! * an **item scanner** that finds `fn` items (with their `impl`/`trait`
//!   owner type and `#[cfg(test)]`/`#[test]` gating), walks `mod` blocks,
//!   and collects `const` definitions inside modules named `streams` (the
//!   RNG stream registries D008 audits);
//! * an **expression parser** that turns each function body into a small
//!   [`Expr`] tree: paths, calls, method chains with turbofish, field and
//!   index access, binary/cast expressions, closures, `let` bindings with
//!   their ascribed type.
//!
//! The grammar is deliberately *approximate*. Anything the parser does
//! not model (struct literals, patterns, attribute internals) degrades
//! into [`Expr::Opaque`] groupings whose sub-expressions are still
//! visited — rules stay conservative, never blind. Two hard guarantees,
//! pinned by a property test over arbitrary byte strings
//! (`tests/parser_fuzz.rs`):
//!
//! 1. **No panics**, on any input. The parser runs on every workspace
//!    file including half-saved ones.
//! 2. **Termination**: every parsing loop consumes at least one token
//!    tree per iteration (enforced by a force-progress check in the
//!    statement loop).

use crate::tokenizer::{Token, TokenKind};

// ------------------------------------------------------------ token trees

/// One node of the bracket-matched token-tree layer.
#[derive(Clone, Debug)]
pub enum Tree<'a> {
    /// A non-delimiter token.
    Leaf(Token<'a>),
    /// A `(…)`, `[…]` or `{…}` group (identified by its opening byte).
    Group {
        /// `b'('`, `b'['` or `b'{'`.
        delim: u8,
        /// Line of the opening delimiter.
        line: u32,
        /// The trees between the delimiters.
        trees: Vec<Tree<'a>>,
    },
}

impl<'a> Tree<'a> {
    /// The leaf's token text, or `""` for groups.
    fn text(&self) -> &'a str {
        match self {
            Tree::Leaf(t) => t.text,
            Tree::Group { .. } => "",
        }
    }

    /// The leaf token, if this is a leaf.
    fn leaf(&self) -> Option<&Token<'a>> {
        match self {
            Tree::Leaf(t) => Some(t),
            Tree::Group { .. } => None,
        }
    }

    /// Source line of this tree's first token.
    pub fn line(&self) -> u32 {
        match self {
            Tree::Leaf(t) => t.line,
            Tree::Group { line, .. } => *line,
        }
    }
}

/// Group comment-free tokens into bracket-matched trees. Unmatched
/// closers become leaves; unclosed groups end at EOF.
pub fn build_trees<'a>(tokens: &[Token<'a>]) -> Vec<Tree<'a>> {
    // (delim, line, children) per open group.
    let mut stack: Vec<(u8, u32, Vec<Tree<'a>>)> = Vec::new();
    let mut top: Vec<Tree<'a>> = Vec::new();
    for t in tokens {
        if matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        match t.text {
            "(" | "[" | "{" if t.kind == TokenKind::Punct => {
                stack.push((t.text.as_bytes()[0], t.line, Vec::new()));
            }
            ")" | "]" | "}" if t.kind == TokenKind::Punct => {
                // Close the innermost group even on a delimiter mismatch
                // (half-saved input); a closer with nothing open is a leaf.
                match stack.pop() {
                    Some((delim, line, trees)) => {
                        let group = Tree::Group { delim, line, trees };
                        match stack.last_mut() {
                            Some((_, _, parent)) => parent.push(group),
                            None => top.push(group),
                        }
                    }
                    None => top.push(Tree::Leaf(*t)),
                }
            }
            _ => match stack.last_mut() {
                Some((_, _, parent)) => parent.push(Tree::Leaf(*t)),
                None => top.push(Tree::Leaf(*t)),
            },
        }
    }
    // Unclosed groups: collapse inside-out.
    while let Some((delim, line, trees)) = stack.pop() {
        let group = Tree::Group { delim, line, trees };
        match stack.last_mut() {
            Some((_, _, parent)) => parent.push(group),
            None => top.push(group),
        }
    }
    top
}

// ------------------------------------------------------------ parsed items

/// One `fn` item with its parsed body.
#[derive(Clone, Debug)]
pub struct FnItem<'a> {
    /// The function's simple name.
    pub name: &'a str,
    /// The `impl`/`trait` type it is defined on, if any.
    pub owner: Option<&'a str>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Inside `#[cfg(test)]`-gated code or carrying `#[test]`.
    pub is_test: bool,
    /// The body's statement expressions.
    pub body: Vec<Expr<'a>>,
}

/// A `const NAME: u64 = <int>;` inside a module named `streams` — the
/// registry convention for `SimRng` stream labels D008 audits.
#[derive(Clone, Debug)]
pub struct StreamConst<'a> {
    /// Constant name.
    pub name: &'a str,
    /// Parsed integer value (`None` when the initializer is not a plain
    /// integer literal).
    pub value: Option<u64>,
    /// Line of the constant's name.
    pub line: u32,
}

/// Everything the item scanner extracts from one file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile<'a> {
    /// All `fn` items (free, inherent, trait-default), in source order.
    pub fns: Vec<FnItem<'a>>,
    /// Stream-label constants (`mod streams { const … }`).
    pub stream_consts: Vec<StreamConst<'a>>,
}

/// Parse one file's tokens into items and expression trees.
pub fn parse<'a>(tokens: &[Token<'a>]) -> ParsedFile<'a> {
    let trees = build_trees(tokens);
    let mut out = ParsedFile::default();
    scan_items(&trees, None, false, false, &mut out);
    out
}

/// Item keywords that end an attribute's scope without opening a body we
/// model: skip to the item's end and continue.
const SKIPPED_ITEMS: &[&str] =
    &["struct", "enum", "union", "use", "static", "type", "macro_rules", "extern"];

/// Walk one tree level collecting items. `owner` is the enclosing
/// `impl`/`trait` type, `in_test` whether an enclosing item was
/// test-gated, `in_streams` whether the enclosing module is `streams`.
fn scan_items<'a>(
    trees: &[Tree<'a>],
    owner: Option<&'a str>,
    in_test: bool,
    in_streams: bool,
    out: &mut ParsedFile<'a>,
) {
    let mut pending_test = false;
    let mut i = 0;
    while i < trees.len() {
        let t = &trees[i];
        match t.text() {
            "#" => {
                // `#[…]` / `#![…]`: mark test gating, ignore otherwise.
                let mut j = i + 1;
                if trees.get(j).map(Tree::text) == Some("!") {
                    j += 1;
                }
                if let Some(Tree::Group { delim: b'[', trees: attr, .. }) = trees.get(j) {
                    if attr_gates_test(attr) {
                        pending_test = true;
                    }
                    i = j + 1;
                } else {
                    i += 1;
                }
                continue;
            }
            "mod" => {
                let name = trees.get(i + 1).map(Tree::text).unwrap_or("");
                // `mod name { … }` (an out-of-line `mod name;` has no body).
                let mut j = i + 2;
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Group { delim: b'{', trees: body, .. } => {
                            scan_items(
                                body,
                                None,
                                in_test || pending_test,
                                name == "streams",
                                out,
                            );
                            break;
                        }
                        Tree::Leaf(l) if l.text == ";" => break,
                        _ => j += 1,
                    }
                }
                i = j + 1;
                pending_test = false;
                continue;
            }
            "impl" | "trait" => {
                // Header runs to the first `{` group at this level.
                let mut j = i + 1;
                let mut header: Vec<&Tree<'a>> = Vec::new();
                let mut body: Option<&[Tree<'a>]> = None;
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Group { delim: b'{', trees: b, .. } => {
                            body = Some(b);
                            break;
                        }
                        Tree::Leaf(l) if l.text == ";" => break,
                        tree => header.push(tree),
                    }
                    j += 1;
                }
                let ty = impl_owner(&header);
                if let Some(body) = body {
                    scan_items(body, ty, in_test || pending_test, false, out);
                }
                i = j + 1;
                pending_test = false;
                continue;
            }
            "fn" => {
                let name = match trees.get(i + 1).and_then(Tree::leaf) {
                    Some(l) if l.kind == TokenKind::Ident => l.text,
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let line = t.line();
                // Body: first `{` group after the signature at this level.
                let mut j = i + 2;
                let mut body: Vec<Expr<'a>> = Vec::new();
                let mut had_body = false;
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Group { delim: b'{', trees: b, .. } => {
                            body = parse_block(b);
                            had_body = true;
                            break;
                        }
                        Tree::Leaf(l) if l.text == ";" => break, // trait method decl
                        _ => j += 1,
                    }
                }
                if had_body {
                    out.fns.push(FnItem {
                        name,
                        owner,
                        line,
                        is_test: in_test || pending_test,
                        body,
                    });
                }
                i = j + 1;
                pending_test = false;
                continue;
            }
            "const" if in_streams => {
                // `const NAME: u64 = <int>;`
                if let Some(l) = trees.get(i + 1).and_then(Tree::leaf) {
                    if l.kind == TokenKind::Ident {
                        let mut value = None;
                        let mut j = i + 2;
                        while j < trees.len() {
                            match trees[j].text() {
                                ";" => break,
                                "=" => {
                                    value = trees
                                        .get(j + 1)
                                        .and_then(Tree::leaf)
                                        .filter(|v| v.kind == TokenKind::Int)
                                        .and_then(|v| parse_int(v.text));
                                    // Any further token (arithmetic, a
                                    // path) voids the plain-literal read.
                                    if trees.get(j + 2).map(Tree::text) != Some(";") {
                                        value = None;
                                    }
                                    break;
                                }
                                _ => j += 1,
                            }
                        }
                        out.stream_consts.push(StreamConst { name: l.text, value, line: l.line });
                    }
                }
                i += 1;
                pending_test = false;
                continue;
            }
            s if SKIPPED_ITEMS.contains(&s) => {
                // Consume to the end of the item: `;` or its `{ … }` body.
                let mut j = i + 1;
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Group { delim: b'{', .. } => break,
                        Tree::Leaf(l) if l.text == ";" => break,
                        _ => j += 1,
                    }
                }
                i = j + 1;
                pending_test = false;
                continue;
            }
            // Visibility/qualifier tokens keep a pending attribute alive
            // (`#[test] pub fn …`); anything else clears it.
            "pub" | "async" | "default" | "crate" => {}
            _ => pending_test = false,
        }
        i += 1;
    }
}

/// Does a `#[…]` attribute body gate test code? Same semantics as the
/// token-level `rules::parse_attr`: `test` as the head, or `test` inside
/// a `cfg`/`cfg_attr` head, unless a `not` appears anywhere.
fn attr_gates_test(attr: &[Tree<'_>]) -> bool {
    let head = attr.first().map(Tree::text).unwrap_or("");
    if head == "test" {
        return true;
    }
    if !matches!(head, "cfg" | "cfg_attr") {
        return false;
    }
    fn scan(trees: &[Tree<'_>], saw_test: &mut bool, saw_not: &mut bool) {
        for t in trees {
            match t {
                Tree::Leaf(l) if l.kind == TokenKind::Ident => match l.text {
                    "test" => *saw_test = true,
                    "not" => *saw_not = true,
                    _ => {}
                },
                Tree::Group { trees, .. } => scan(trees, saw_test, saw_not),
                _ => {}
            }
        }
    }
    let (mut saw_test, mut saw_not) = (false, false);
    scan(attr, &mut saw_test, &mut saw_not);
    saw_test && !saw_not
}

/// The owner type named by an `impl`/`trait` header: the last
/// angle-depth-0 identifier (after `for`, when present; before `where`).
/// `impl<E: Debug> Engine<E>` → `Engine`; `impl Tracer for MemTracer` →
/// `MemTracer`; `trait Tracer` → `Tracer`.
fn impl_owner<'a>(header: &[&Tree<'a>]) -> Option<&'a str> {
    let mut depth = 0i32;
    let mut owner = None;
    for t in header {
        let Some(l) = t.leaf() else { continue };
        match l.text {
            "<" => depth += 1,
            ">" => depth -= 1,
            "<<" => depth += 2,
            ">>" => depth -= 2,
            "where" if depth <= 0 => break,
            "for" if depth <= 0 => owner = None,
            _ if l.kind == TokenKind::Ident && depth <= 0 => owner = Some(l.text),
            _ => {}
        }
    }
    owner
}

/// Parse `"0x0A"` / `"1_000"` / `"7u64"`-style integer literal text.
pub fn parse_int(text: &str) -> Option<u64> {
    let t = text.replace('_', "");
    let (digits, radix) = if let Some(h) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        (h, 16)
    } else if let Some(o) = t.strip_prefix("0o").or_else(|| t.strip_prefix("0O")) {
        (o, 8)
    } else if let Some(b) = t.strip_prefix("0b").or_else(|| t.strip_prefix("0B")) {
        (b, 2)
    } else {
        (t.as_str(), 10)
    };
    // Strip a type suffix (`u64`, `usize`, …).
    let end = digits
        .char_indices()
        .find(|(_, c)| !c.is_digit(radix))
        .map_or(digits.len(), |(i, _)| i);
    u64::from_str_radix(&digits[..end], radix).ok()
}

// ------------------------------------------------------------ expressions

/// A simplified expression tree. Unmodeled constructs degrade into
/// [`Expr::Opaque`]; rules walk every variant's children, so nothing a
/// rule cares about hides inside an unmodeled parent.
#[derive(Clone, Debug)]
pub enum Expr<'a> {
    /// `a::b::c` (single identifiers included).
    Path {
        /// The `::`-separated segments (turbofish types stripped).
        segs: Vec<&'a str>,
        /// Line of the first segment.
        line: u32,
    },
    /// Integer literal.
    Int {
        /// Verbatim literal text.
        text: &'a str,
        /// Source line.
        line: u32,
    },
    /// Float literal (sign-insensitive: `-1.0` parses to this too).
    Float {
        /// Source line.
        line: u32,
    },
    /// String/char/lifetime literal (contents never matter to rules).
    OtherLit {
        /// Source line.
        line: u32,
    },
    /// `callee(args…)` where callee is any expression (usually a path).
    Call {
        /// The called expression.
        callee: Box<Expr<'a>>,
        /// Top-level comma-split arguments.
        args: Vec<Expr<'a>>,
        /// Line of the opening parenthesis.
        line: u32,
    },
    /// `recv.name::<T>(args…)`.
    Method {
        /// Receiver expression.
        recv: Box<Expr<'a>>,
        /// Method name.
        name: &'a str,
        /// Turbofish type identifiers, when present.
        turbofish: Vec<&'a str>,
        /// Top-level comma-split arguments.
        args: Vec<Expr<'a>>,
        /// Line of the method name.
        line: u32,
    },
    /// `base.name` / `base.0` field access.
    Field {
        /// Base expression.
        base: Box<Expr<'a>>,
        /// Field name (tuple indices arrive as their digit text).
        name: &'a str,
        /// Line of the field name.
        line: u32,
    },
    /// `base[index]`.
    Index {
        /// Indexed expression.
        base: Box<Expr<'a>>,
        /// The bracketed expression.
        index: Box<Expr<'a>>,
        /// Line of the opening bracket.
        line: u32,
    },
    /// `name!(…)` macro invocation.
    Macro {
        /// Macro name (last path segment).
        name: &'a str,
        /// Parsed delimiter contents (statement soup).
        args: Vec<Expr<'a>>,
        /// Line of the macro name.
        line: u32,
    },
    /// `lhs op rhs`, left-associative, no precedence (rules only inspect
    /// one operator level at a time).
    Binary {
        /// Operator text (`+`, `==`, …).
        op: &'a str,
        /// Left operand.
        lhs: Box<Expr<'a>>,
        /// Right operand.
        rhs: Box<Expr<'a>>,
        /// Line of the operator.
        line: u32,
    },
    /// `expr as Ty`.
    Cast {
        /// The cast expression.
        expr: Box<Expr<'a>>,
        /// Target type path segments.
        ty: Vec<&'a str>,
        /// Line of the `as`.
        line: u32,
    },
    /// `let name: ty = init;`.
    Let {
        /// Bound name for a simple identifier pattern, else `None`.
        name: Option<&'a str>,
        /// Ascribed type identifiers (empty without ascription).
        ty: Vec<&'a str>,
        /// Initializer.
        init: Option<Box<Expr<'a>>>,
        /// Line of the `let`.
        line: u32,
    },
    /// `|args| body` / `move || body`.
    Closure {
        /// The body expression(s).
        body: Vec<Expr<'a>>,
        /// Line of the opening `|`.
        line: u32,
    },
    /// `{ … }` block (also `match` arm soup and control-flow bodies).
    Block(Vec<Expr<'a>>),
    /// Anything else with visitable children.
    Opaque(Vec<Expr<'a>>),
}

impl<'a> Expr<'a> {
    /// Child expressions, for generic tree walks.
    pub fn children(&self) -> Vec<&Expr<'a>> {
        match self {
            Expr::Path { .. }
            | Expr::Int { .. }
            | Expr::Float { .. }
            | Expr::OtherLit { .. } => Vec::new(),
            Expr::Call { callee, args, .. } => {
                std::iter::once(&**callee).chain(args.iter()).collect()
            }
            Expr::Method { recv, args, .. } => {
                std::iter::once(&**recv).chain(args.iter()).collect()
            }
            Expr::Field { base, .. } => vec![base],
            Expr::Index { base, index, .. } => vec![base, index],
            Expr::Macro { args, .. } => args.iter().collect(),
            Expr::Binary { lhs, rhs, .. } => vec![lhs, rhs],
            Expr::Cast { expr, .. } => vec![expr],
            Expr::Let { init, .. } => init.iter().map(|b| &**b).collect(),
            Expr::Closure { body, .. } => body.iter().collect(),
            Expr::Block(es) | Expr::Opaque(es) => es.iter().collect(),
        }
    }

    /// Depth-first walk calling `f` on every node, self included.
    pub fn walk(&self, f: &mut impl FnMut(&Expr<'a>)) {
        f(self);
        for c in self.children() {
            c.walk(f);
        }
    }
}

/// Binary operators recognized by the expression parser (joined into one
/// flat left-associative level — rules never need precedence).
const BINARY_OPS: &[&str] = &[
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "+=", "-=", "*=", "/=", "%=", "^=", "&=",
    "|=", "<<=", ">>=", "..=", "..", "+", "-", "*", "/", "%", "^", "&", "|", "<", ">", "=",
];

/// Statement separators skipped between parses (match arms ride along).
const SEPARATORS: &[&str] = &[";", ",", "=>"];

struct P<'a, 't> {
    trees: &'t [Tree<'a>],
    pos: usize,
}

/// Parse a brace group's contents as a statement list.
pub fn parse_block<'a>(trees: &[Tree<'a>]) -> Vec<Expr<'a>> {
    let mut p = P { trees, pos: 0 };
    let mut out = Vec::new();
    while p.pos < p.trees.len() {
        if SEPARATORS.contains(&p.trees[p.pos].text()) {
            p.pos += 1;
            continue;
        }
        let before = p.pos;
        let e = p.parse_stmt();
        out.push(e);
        if p.pos == before {
            // Force progress: nothing consumed means an unmodeled token;
            // swallow it so the loop always terminates.
            p.pos += 1;
        }
    }
    out
}

impl<'a, 't> P<'a, 't> {
    fn peek(&self) -> Option<&'t Tree<'a>> {
        self.trees.get(self.pos)
    }

    fn peek_text(&self) -> &'a str {
        self.peek().map(Tree::text).unwrap_or("")
    }

    fn bump(&mut self) -> Option<&'t Tree<'a>> {
        let t = self.trees.get(self.pos)?;
        self.pos += 1;
        Some(t)
    }

    fn parse_stmt(&mut self) -> Expr<'a> {
        match self.peek_text() {
            "let" => self.parse_let(),
            "if" | "while" => {
                self.bump();
                self.skip_if_let_binding();
                let cond = self.parse_expr();
                let mut parts = vec![cond];
                if let Some(Tree::Group { delim: b'{', trees, .. }) = self.peek() {
                    let trees: &[Tree<'a>] = trees;
                    self.bump();
                    parts.push(Expr::Block(parse_block(trees)));
                }
                // else-chain: `else {}` / `else if [let] … {}`, strictly
                // after an `else` keyword so a following statement is
                // never swallowed into this one.
                while self.peek_text() == "else" {
                    self.bump();
                    if self.peek_text() == "if" {
                        self.bump();
                        self.skip_if_let_binding();
                        parts.push(self.parse_expr());
                    }
                    if let Some(Tree::Group { delim: b'{', trees, .. }) = self.peek() {
                        let trees: &[Tree<'a>] = trees;
                        self.bump();
                        parts.push(Expr::Block(parse_block(trees)));
                    } else {
                        break;
                    }
                }
                Expr::Opaque(parts)
            }
            "for" => {
                self.bump();
                // Pattern up to `in`.
                while !matches!(self.peek_text(), "" | "in") {
                    if let Some(Tree::Group { delim: b'{', .. }) = self.peek() {
                        break;
                    }
                    self.bump();
                }
                if self.peek_text() == "in" {
                    self.bump();
                }
                let iter = self.parse_expr();
                let mut parts = vec![iter];
                if let Some(Tree::Group { delim: b'{', trees, .. }) = self.peek() {
                    self.bump();
                    parts.push(Expr::Block(parse_block(trees)));
                }
                Expr::Opaque(parts)
            }
            "loop" => {
                self.bump();
                match self.peek() {
                    Some(Tree::Group { delim: b'{', trees, .. }) => {
                        self.bump();
                        Expr::Block(parse_block(trees))
                    }
                    _ => Expr::Opaque(Vec::new()),
                }
            }
            "match" => {
                self.bump();
                let scrutinee = self.parse_expr();
                let mut parts = vec![scrutinee];
                if let Some(Tree::Group { delim: b'{', trees, .. }) = self.peek() {
                    self.bump();
                    parts.push(Expr::Block(parse_block(trees)));
                }
                Expr::Opaque(parts)
            }
            "return" | "break" => {
                self.bump();
                if matches!(self.peek_text(), "" | ";" | "," | "}") {
                    Expr::Opaque(Vec::new())
                } else {
                    let e = self.parse_expr();
                    Expr::Opaque(vec![e])
                }
            }
            "continue" => {
                self.bump();
                Expr::Opaque(Vec::new())
            }
            _ => self.parse_expr(),
        }
    }

    /// After an `if`/`while` keyword: skip an optional `let PAT =`
    /// binding so the scrutinee parses as the condition. The pattern may
    /// contain groups (`if let Data { .. } = body`); it always ends at a
    /// top-level `=` (or, on malformed input, at `;`/end).
    fn skip_if_let_binding(&mut self) {
        if self.peek_text() != "let" {
            return;
        }
        self.bump();
        while !matches!(self.peek_text(), "" | "=" | ";") {
            self.bump();
        }
        if self.peek_text() == "=" {
            self.bump();
        }
    }

    fn parse_let(&mut self) -> Expr<'a> {
        let line = self.peek().map(Tree::line).unwrap_or(0);
        self.bump(); // let
        if self.peek_text() == "mut" {
            self.bump();
        }
        // Simple-identifier pattern (`let x` / `let x: T`); anything else
        // (tuples, struct patterns) parses namelessly.
        let mut name = None;
        if let Some(l) = self.peek().and_then(Tree::leaf) {
            if l.kind == TokenKind::Ident && !matches!(l.text, "mut") {
                let next = self.trees.get(self.pos + 1).map(Tree::text).unwrap_or("");
                if matches!(next, ":" | "=" | ";") {
                    name = Some(l.text);
                    self.bump();
                }
            }
        }
        if name.is_none() {
            // Skip the pattern to `:`/`=`/`;` at this level.
            while !matches!(self.peek_text(), "" | ":" | "=" | ";") {
                self.bump();
            }
        }
        let mut ty = Vec::new();
        if self.peek_text() == ":" {
            self.bump();
            // Collect type identifiers to `=` or `;`.
            while !matches!(self.peek_text(), "" | "=" | ";") {
                if let Some(l) = self.peek().and_then(Tree::leaf) {
                    if l.kind == TokenKind::Ident {
                        ty.push(l.text);
                    }
                }
                self.bump();
            }
        }
        let mut init = None;
        if self.peek_text() == "=" {
            self.bump();
            init = Some(Box::new(self.parse_expr()));
        }
        // `let … else { }` divergence block.
        if self.peek_text() == "else" {
            self.bump();
            if let Some(Tree::Group { delim: b'{', .. }) = self.peek() {
                self.bump();
            }
        }
        Expr::Let { name, ty, init, line }
    }

    fn parse_expr(&mut self) -> Expr<'a> {
        let mut lhs = self.parse_unary();
        loop {
            match self.peek() {
                Some(Tree::Leaf(l)) if l.text == "as" && l.kind == TokenKind::Ident => {
                    let line = l.line;
                    self.bump();
                    let mut ty = Vec::new();
                    // A type path: idents joined by `::`, optional angles.
                    let mut depth = 0i32;
                    while let Some(t) = self.peek() {
                        match t.text() {
                            "<" => depth += 1,
                            ">" => {
                                depth -= 1;
                                if depth < 0 {
                                    break;
                                }
                            }
                            "<<" => depth += 2,
                            ">>" => depth -= 2,
                            "::" => {}
                            _ => {
                                let Some(l) = t.leaf() else { break };
                                if l.kind != TokenKind::Ident || BINARY_OPS.contains(&l.text) {
                                    break;
                                }
                                if depth == 0 && !ty.is_empty() {
                                    // Two depth-0 idents in a row end the
                                    // type (`x as u64 + y` → stop at `+`
                                    // handled above; `x as u64 .max(..)`
                                    // ends via the `.` branch below).
                                    break;
                                }
                                ty.push(l.text);
                            }
                        }
                        if t.text() == "." || matches!(t, Tree::Group { .. }) {
                            break;
                        }
                        self.bump();
                        if depth < 0 {
                            break;
                        }
                    }
                    lhs = Expr::Cast { expr: Box::new(lhs), ty, line };
                    // Postfix may continue after a cast (`x as f64`).sqrt().
                    lhs = self.parse_postfix_on(lhs);
                }
                Some(Tree::Leaf(l))
                    if l.kind == TokenKind::Punct && BINARY_OPS.contains(&l.text) =>
                {
                    // `{` after a binary op can't happen; `|` here is
                    // bitwise-or (closures only appear in unary position).
                    let op = l.text;
                    let line = l.line;
                    self.bump();
                    let rhs = self.parse_unary();
                    lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), line };
                }
                _ => break,
            }
        }
        lhs
    }

    fn parse_unary(&mut self) -> Expr<'a> {
        let mut minus = false;
        loop {
            match self.peek() {
                Some(Tree::Leaf(l))
                    if l.kind == TokenKind::Punct && matches!(l.text, "-" | "!" | "*" | "&") =>
                {
                    if l.text == "-" {
                        minus = !minus;
                    }
                    self.bump();
                }
                Some(Tree::Leaf(l)) if matches!(l.text, "mut" | "move" | "ref" | "dyn") => {
                    self.bump();
                }
                Some(Tree::Leaf(l))
                    if l.kind == TokenKind::Punct && (l.text == "|" || l.text == "||") =>
                {
                    // Closure: params to the matching `|`, then the body.
                    let line = l.line;
                    self.bump();
                    if l.text == "|" {
                        while !matches!(self.peek_text(), "" | "|") {
                            self.bump();
                        }
                        self.bump(); // closing |
                    }
                    let body = self.parse_expr();
                    return Expr::Closure { body: vec![body], line };
                }
                _ => break,
            }
        }
        let e = self.parse_postfix();
        if minus {
            // Sign never changes what rules see except float-ness, which
            // `Float` already is; keep the inner expression.
        }
        e
    }

    fn parse_postfix(&mut self) -> Expr<'a> {
        let primary = self.parse_primary();
        self.parse_postfix_on(primary)
    }

    fn parse_postfix_on(&mut self, mut e: Expr<'a>) -> Expr<'a> {
        loop {
            match self.peek() {
                Some(Tree::Leaf(l)) if l.text == "." => {
                    self.bump();
                    match self.peek() {
                        Some(Tree::Leaf(n)) if n.kind == TokenKind::Ident => {
                            let name = n.text;
                            let line = n.line;
                            self.bump();
                            let turbofish = self.parse_turbofish();
                            match self.peek() {
                                Some(Tree::Group { delim: b'(', trees, .. }) => {
                                    self.bump();
                                    e = Expr::Method {
                                        recv: Box::new(e),
                                        name,
                                        turbofish,
                                        args: parse_args(trees),
                                        line,
                                    };
                                }
                                _ => {
                                    e = Expr::Field { base: Box::new(e), name, line };
                                }
                            }
                        }
                        Some(Tree::Leaf(n)) if n.kind == TokenKind::Int => {
                            let (name, line) = (n.text, n.line);
                            self.bump();
                            e = Expr::Field { base: Box::new(e), name, line };
                        }
                        _ => {
                            // `.` followed by nothing we model (`..` is an
                            // operator and never reaches here): swallow.
                            self.bump();
                        }
                    }
                }
                Some(Tree::Leaf(l)) if l.text == "?" => {
                    self.bump();
                }
                Some(Tree::Group { delim: b'(', trees, line }) => {
                    let args = parse_args(trees);
                    let line = *line;
                    self.bump();
                    e = Expr::Call { callee: Box::new(e), args, line };
                }
                Some(Tree::Group { delim: b'[', trees, line }) => {
                    let inner = parse_block(trees);
                    let index = match inner.len() {
                        1 => inner.into_iter().next().unwrap_or(Expr::Opaque(Vec::new())),
                        _ => Expr::Opaque(inner),
                    };
                    let line = *line;
                    self.bump();
                    e = Expr::Index { base: Box::new(e), index: Box::new(index), line };
                }
                _ => break,
            }
        }
        e
    }

    /// `::<T, U>` after a path segment or method name. Returns the type
    /// identifiers seen (empty when there is no turbofish).
    fn parse_turbofish(&mut self) -> Vec<&'a str> {
        if self.peek_text() != "::" {
            return Vec::new();
        }
        let next = self.trees.get(self.pos + 1).map(Tree::text).unwrap_or("");
        if next != "<" {
            return Vec::new();
        }
        self.bump(); // ::
        self.bump(); // <
        let mut depth = 1i32;
        let mut types = Vec::new();
        while depth > 0 {
            let Some(t) = self.bump() else { break };
            match t.text() {
                "<" => depth += 1,
                ">" => depth -= 1,
                "<<" => depth += 2,
                ">>" => depth -= 2,
                _ => {
                    if let Some(l) = t.leaf() {
                        if l.kind == TokenKind::Ident {
                            types.push(l.text);
                        }
                    }
                }
            }
        }
        types
    }

    fn parse_primary(&mut self) -> Expr<'a> {
        let Some(t) = self.peek() else {
            return Expr::Opaque(Vec::new());
        };
        match t {
            Tree::Leaf(l) => match l.kind {
                TokenKind::Ident => {
                    let mut segs = vec![l.text];
                    let line = l.line;
                    self.bump();
                    // Path continuation: `::seg`, with optional turbofish
                    // between segments (`Vec::<u8>::new`).
                    loop {
                        if self.peek_text() != "::" {
                            break;
                        }
                        let after = self.trees.get(self.pos + 1);
                        match after {
                            Some(Tree::Leaf(n)) if n.kind == TokenKind::Ident => {
                                self.bump();
                                segs.push(n.text);
                                self.bump();
                            }
                            Some(Tree::Leaf(n)) if n.text == "<" => {
                                let _ = self.parse_turbofish();
                            }
                            _ => break,
                        }
                    }
                    // Macro invocation?
                    if self.peek_text() == "!" {
                        let next_is_group =
                            matches!(self.trees.get(self.pos + 1), Some(Tree::Group { .. }));
                        if next_is_group {
                            self.bump(); // !
                            if let Some(Tree::Group { trees, .. }) = self.peek() {
                                let args = parse_block(trees);
                                self.bump();
                                let name = segs.last().copied().unwrap_or("");
                                return Expr::Macro { name, args, line };
                            }
                        }
                    }
                    Expr::Path { segs, line }
                }
                TokenKind::Int => {
                    let e = Expr::Int { text: l.text, line: l.line };
                    self.bump();
                    e
                }
                TokenKind::Float => {
                    let e = Expr::Float { line: l.line };
                    self.bump();
                    e
                }
                TokenKind::Str | TokenKind::RawStr | TokenKind::Char | TokenKind::Lifetime => {
                    let e = Expr::OtherLit { line: l.line };
                    self.bump();
                    e
                }
                _ => {
                    // Unmodeled punctuation: swallow as an opaque atom.
                    self.bump();
                    Expr::Opaque(Vec::new())
                }
            },
            Tree::Group { delim, trees, .. } => {
                let delim = *delim;
                let inner = parse_block(trees);
                self.bump();
                match delim {
                    b'{' => Expr::Block(inner),
                    _ => Expr::Opaque(inner),
                }
            }
        }
    }
}

/// Parse a parenthesized argument list: top-level commas split arguments;
/// an argument that parses to several expressions is wrapped opaquely so
/// positions stay aligned with the source.
fn parse_args<'a>(trees: &[Tree<'a>]) -> Vec<Expr<'a>> {
    let mut out = Vec::new();
    let mut p = P { trees, pos: 0 };
    while p.pos < p.trees.len() {
        if p.peek_text() == "," {
            p.pos += 1;
            continue;
        }
        let mut parts = Vec::new();
        while p.pos < p.trees.len() && p.peek_text() != "," {
            let before = p.pos;
            if SEPARATORS.contains(&p.peek_text()) {
                p.pos += 1;
                continue;
            }
            parts.push(p.parse_stmt());
            if p.pos == before {
                p.pos += 1;
            }
        }
        match parts.len() {
            0 => {}
            1 => out.push(parts.into_iter().next().unwrap_or(Expr::Opaque(Vec::new()))),
            _ => out.push(Expr::Opaque(parts)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn parse_src(src: &str) -> ParsedFile<'_> {
        // Leak is fine in tests: tokens borrow src which outlives the call.
        parse(&tokenize(src))
    }

    #[test]
    fn finds_fns_with_owners() {
        let f = parse_src(
            "fn free() {}\n\
             impl Engine { fn pop(&mut self) {} }\n\
             impl Tracer for MemTracer { fn record(&self) {} }\n\
             trait T { fn with_default(&self) { helper(); } fn decl_only(&self); }",
        );
        let names: Vec<_> = f.fns.iter().map(|f| (f.owner, f.name)).collect();
        assert_eq!(
            names,
            vec![
                (None, "free"),
                (Some("Engine"), "pop"),
                (Some("MemTracer"), "record"),
                (Some("T"), "with_default"),
            ]
        );
    }

    #[test]
    fn impl_owner_handles_generics_and_paths() {
        let f = parse_src(
            "impl<E: std::fmt::Debug> Wheel<E> { fn cascade(&mut self) {} }\n\
             impl std::fmt::Display for Livelock { fn fmt(&self) {} }\n\
             impl<T> ops::Add for Complex { fn add(self) {} }",
        );
        let owners: Vec<_> = f.fns.iter().map(|f| f.owner).collect();
        assert_eq!(owners, vec![Some("Wheel"), Some("Livelock"), Some("Complex")]);
    }

    #[test]
    fn test_gating_marks_fns() {
        let f = parse_src(
            "#[test]\nfn t() {}\n\
             fn lib() {}\n\
             #[cfg(test)]\nmod tests { fn helper() {} }\n\
             #[cfg(not(test))]\nfn prod() {}",
        );
        let flags: Vec<_> = f.fns.iter().map(|f| (f.name, f.is_test)).collect();
        assert_eq!(
            flags,
            vec![("t", true), ("lib", false), ("helper", true), ("prod", false)]
        );
    }

    #[test]
    fn stream_consts_are_collected() {
        let f = parse_src(
            "pub mod streams {\n\
               pub const WIRED: u64 = 0x01;\n\
               pub const COMPUTED: u64 = BASE + 1;\n\
             }\n\
             mod other { pub const NOT_A_STREAM: u64 = 0x01; }",
        );
        assert_eq!(f.stream_consts.len(), 2);
        assert_eq!(f.stream_consts[0].name, "WIRED");
        assert_eq!(f.stream_consts[0].value, Some(1));
        assert_eq!(f.stream_consts[1].value, None); // computed, not literal
    }

    fn body_of<'a>(f: &'a ParsedFile<'a>, name: &str) -> &'a [Expr<'a>] {
        &f.fns.iter().find(|x| x.name == name).expect("fn").body
    }

    fn count_where(body: &[Expr<'_>], pred: &mut impl FnMut(&Expr<'_>) -> bool) -> usize {
        let mut n = 0;
        for e in body {
            e.walk(&mut |x| {
                if pred(x) {
                    n += 1;
                }
            });
        }
        n
    }

    #[test]
    fn method_chains_and_turbofish() {
        let f = parse_src("fn f(v: &[f64]) -> f64 { v.iter().copied().sum::<f64>() }");
        let body = body_of(&f, "f");
        let sums = count_where(body, &mut |e| {
            matches!(e, Expr::Method { name: "sum", turbofish, .. } if turbofish == &vec!["f64"])
        });
        assert_eq!(sums, 1);
    }

    #[test]
    fn calls_paths_and_macros() {
        let f = parse_src(
            "fn f() { let v = Vec::new(); let b = Box::new(1); let s = format!(\"x{}\", 1); g(v); }",
        );
        let body = body_of(&f, "f").to_vec();
        assert_eq!(
            count_where(&body, &mut |e| matches!(
                e,
                Expr::Call { callee, .. } if matches!(&**callee, Expr::Path { segs, .. } if segs == &vec!["Vec", "new"])
            )),
            1
        );
        assert_eq!(
            count_where(&body, &mut |e| matches!(e, Expr::Macro { name: "format", .. })),
            1
        );
        assert_eq!(
            count_where(&body, &mut |e| matches!(
                e,
                Expr::Call { callee, .. } if matches!(&**callee, Expr::Path { segs, .. } if segs == &vec!["g"])
            )),
            1
        );
    }

    #[test]
    fn index_with_arithmetic() {
        let f = parse_src("fn f(xs: &[u32], i: usize) -> u32 { xs[i - 1] + xs[i] }");
        let body = body_of(&f, "f").to_vec();
        let hits = count_where(&body, &mut |e| {
            matches!(e, Expr::Index { index, .. } if matches!(&**index, Expr::Binary { op: "-", .. }))
        });
        assert_eq!(hits, 1);
    }

    #[test]
    fn let_ascription_and_float_binding() {
        let f = parse_src("fn f() { let eps = 1e-9; let mw: f64 = x.iter().sum(); }");
        let body = body_of(&f, "f").to_vec();
        assert!(body.iter().any(|e| matches!(
            e,
            Expr::Let { name: Some("eps"), init: Some(i), .. } if matches!(&**i, Expr::Float { .. })
        )));
        assert!(body.iter().any(|e| matches!(
            e,
            Expr::Let { name: Some("mw"), ty, .. } if ty.contains(&"f64")
        )));
    }

    #[test]
    fn closures_are_transparent() {
        let f = parse_src("fn f(xs: &[u32]) { xs.iter().map(|x| Vec::new()).count(); }");
        let body = body_of(&f, "f").to_vec();
        let allocs = count_where(&body, &mut |e| {
            matches!(e, Expr::Call { callee, .. } if matches!(&**callee, Expr::Path { segs, .. } if segs.last() == Some(&"new")))
        });
        assert_eq!(allocs, 1);
    }

    #[test]
    fn control_flow_bodies_are_visited() {
        let f = parse_src(
            "fn f(x: u32) { if x > 1 { g(); } else { h(); } for i in 0..x { k(i); } match x { 1 => m(), _ => n() } }",
        );
        let body = body_of(&f, "f").to_vec();
        for callee in ["g", "h", "k", "m", "n"] {
            assert_eq!(
                count_where(&body, &mut |e| matches!(
                    e,
                    Expr::Call { callee: c, .. } if matches!(&**c, Expr::Path { segs, .. } if segs == &vec![callee])
                )),
                1,
                "{callee}"
            );
        }
    }

    #[test]
    fn struct_literals_degrade_but_children_survive() {
        let f = parse_src("fn f() -> Foo { Foo { a: Vec::new(), b: 1 } }");
        let body = body_of(&f, "f").to_vec();
        let allocs = count_where(&body, &mut |e| {
            matches!(e, Expr::Call { callee, .. } if matches!(&**callee, Expr::Path { segs, .. } if segs == &vec!["Vec", "new"]))
        });
        assert_eq!(allocs, 1);
    }

    #[test]
    fn malformed_input_never_panics() {
        for src in [
            "fn f( {", "impl }{", "fn", "fn x", "let = = =", "a.b.c.d(((", "x[[[", "|||",
            "fn f() { a as }", "fn f() { x.0.1.2 }", "match { =herp> }", "#[cfg(", "::<::<",
        ] {
            let _ = parse_src(src);
        }
    }
}
