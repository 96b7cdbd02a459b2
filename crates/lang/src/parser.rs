//! Recursive-descent parser for DBPL scripts.

use dc_calculus::ast::{ArithOp, Branch, CmpOp, Formula, RangeExpr, ScalarExpr, SetFormer, Target};
use dc_value::Value;

use crate::error::LangError;
use crate::lexer::{tokenize, Kw, Tok, Token};
use crate::stmt::{Stmt, TypeExpr};

/// How deep the parser recurses before it refuses the input with a
/// [`LangError::Parse`]: each nested relation expression, `NOT`, and
/// scalar factor (a parenthesis, a unary minus) is one level. Every
/// later stage — lowering, type checking, rewriting, evaluation — walks
/// the tree it builds recursively, so the bound keeps a script that
/// parses runnable on an ordinary thread stack.
pub const MAX_NESTING: usize = 64;

/// Parse a whole script.
pub fn parse_script(src: &str) -> Result<Vec<Stmt>, LangError> {
    let tokens = tokenize(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
        src,
    };
    let mut out = Vec::new();
    while !p.at(Tok::Eof) {
        out.push(p.statement()?);
    }
    Ok(out)
}

/// Parse a single query expression (no trailing `;`).
pub fn parse_expr(src: &str) -> Result<RangeExpr, LangError> {
    let tokens = tokenize(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
        src,
    };
    let e = p.range_expr()?;
    p.expect(Tok::Eof)?;
    Ok(e)
}

struct Parser<'s> {
    tokens: Vec<Token>,
    pos: usize,
    /// Guarded rules on the stack — see [`MAX_NESTING`].
    depth: usize,
    #[allow(dead_code)]
    src: &'s str,
}

impl Parser<'_> {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek_at(&self, off: usize) -> &Tok {
        let i = (self.pos + off).min(self.tokens.len() - 1);
        &self.tokens[i].tok
    }

    fn at(&self, t: Tok) -> bool {
        *self.peek() == t
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, LangError> {
        let t = &self.tokens[self.pos];
        Err(LangError::Parse {
            line: t.line,
            col: t.col,
            msg: msg.into(),
        })
    }

    /// Run `rule` one nesting level deeper, refusing past
    /// [`MAX_NESTING`]. Every recursive cycle of the grammar passes
    /// through a guarded rule: `range_expr`, `not_formula`, or `factor`.
    fn nested<T>(&mut self, rule: fn(&mut Self) -> Result<T, LangError>) -> Result<T, LangError> {
        if self.depth == MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        let out = rule(self);
        self.depth -= 1;
        out
    }

    fn expect(&mut self, t: Tok) -> Result<(), LangError> {
        if *self.peek() == t {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {t:?}, found {:?}", self.peek()))
        }
    }

    fn expect_kw(&mut self, kw: Kw) -> Result<(), LangError> {
        self.expect(Tok::Kw(kw))
    }

    fn ident(&mut self) -> Result<String, LangError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    // --------------------------------------------------------------
    // Statements
    // --------------------------------------------------------------

    fn statement(&mut self) -> Result<Stmt, LangError> {
        match self.peek().clone() {
            Tok::Kw(Kw::Type) => self.type_def(),
            Tok::Kw(Kw::Var) => self.var_decl(),
            Tok::Kw(Kw::Selector) => self.selector_def(),
            Tok::Kw(Kw::Constructor) => self.constructor_def(),
            Tok::Kw(Kw::Insert) => self.insert_stmt(),
            Tok::Kw(Kw::Query) => self.query_stmt(),
            other => self.err(format!("expected a statement, found {other:?}")),
        }
    }

    fn type_def(&mut self) -> Result<Stmt, LangError> {
        self.expect_kw(Kw::Type)?;
        let name = self.ident()?;
        self.expect(Tok::Eq)?;
        let def = self.type_expr()?;
        self.expect(Tok::Semi)?;
        Ok(Stmt::TypeDef { name, def })
    }

    fn type_expr(&mut self) -> Result<TypeExpr, LangError> {
        match self.peek().clone() {
            Tok::Kw(Kw::StringKw) => {
                self.bump();
                Ok(TypeExpr::Str)
            }
            Tok::Kw(Kw::Integer) => {
                self.bump();
                Ok(TypeExpr::Int)
            }
            Tok::Kw(Kw::Cardinal) => {
                self.bump();
                Ok(TypeExpr::Card)
            }
            Tok::Kw(Kw::Boolean) => {
                self.bump();
                Ok(TypeExpr::Bool)
            }
            Tok::Kw(Kw::Range) => {
                self.bump();
                let lo = self.int_lit()?;
                self.expect(Tok::DotDot)?;
                let hi = self.int_lit()?;
                Ok(TypeExpr::Range(lo, hi))
            }
            Tok::Kw(Kw::Relation) => {
                self.bump();
                let key = if self.at(Tok::Ellipsis) {
                    self.bump();
                    Vec::new()
                } else {
                    let mut k = vec![self.ident()?];
                    while self.at(Tok::Comma) {
                        self.bump();
                        k.push(self.ident()?);
                    }
                    k
                };
                self.expect_kw(Kw::Of)?;
                self.expect_kw(Kw::Record)?;
                let mut fields = Vec::new();
                loop {
                    let mut names = vec![self.ident()?];
                    while self.at(Tok::Comma) {
                        self.bump();
                        names.push(self.ident()?);
                    }
                    self.expect(Tok::Colon)?;
                    let ty = self.type_expr()?;
                    for n in names {
                        fields.push((n, ty.clone()));
                    }
                    if self.at(Tok::Semi) {
                        self.bump();
                        if self.at(Tok::Kw(Kw::End)) {
                            break;
                        }
                        continue;
                    }
                    break;
                }
                self.expect_kw(Kw::End)?;
                Ok(TypeExpr::Relation { key, fields })
            }
            Tok::Ident(n) => {
                self.bump();
                Ok(TypeExpr::Named(n))
            }
            other => self.err(format!("expected a type, found {other:?}")),
        }
    }

    fn int_lit(&mut self) -> Result<i64, LangError> {
        let neg = if self.at(Tok::Minus) {
            self.bump();
            true
        } else {
            false
        };
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(if neg { -n } else { n })
            }
            other => self.err(format!("expected an integer, found {other:?}")),
        }
    }

    fn var_decl(&mut self) -> Result<Stmt, LangError> {
        self.expect_kw(Kw::Var)?;
        let name = self.ident()?;
        self.expect(Tok::Colon)?;
        let type_name = self.ident()?;
        self.expect(Tok::Semi)?;
        Ok(Stmt::VarDecl { name, type_name })
    }

    /// `SELECTOR name (p: ty; …) FOR var: reltype;
    ///  BEGIN EACH v IN var: pred END name;`
    fn selector_def(&mut self) -> Result<Stmt, LangError> {
        self.expect_kw(Kw::Selector)?;
        let name = self.ident()?;
        let mut params = Vec::new();
        if self.at(Tok::LParen) {
            self.bump();
            while !self.at(Tok::RParen) {
                let pname = self.ident()?;
                self.expect(Tok::Colon)?;
                let ty = self.type_expr()?;
                params.push((pname, ty));
                if self.at(Tok::Semi) || self.at(Tok::Comma) {
                    self.bump();
                }
            }
            self.expect(Tok::RParen)?;
        }
        self.expect_kw(Kw::For)?;
        let for_var = self.ident()?;
        self.expect(Tok::Colon)?;
        let for_type = self.ident()?;
        // Optional empty parameter parens after the type (paper writes
        // `FOR Rel: infrontrel()`).
        if self.at(Tok::LParen) {
            self.bump();
            self.expect(Tok::RParen)?;
        }
        self.expect(Tok::Semi)?;
        self.expect_kw(Kw::Begin)?;
        self.expect_kw(Kw::Each)?;
        let element_var = self.ident()?;
        self.expect_kw(Kw::In)?;
        let scope = self.ident()?;
        if scope != for_var {
            return self.err(format!(
                "selector body must range over `{for_var}`, found `{scope}`"
            ));
        }
        self.expect(Tok::Colon)?;
        let predicate = self.formula()?;
        self.expect_kw(Kw::End)?;
        let end_name = self.ident()?;
        if end_name != name {
            return self.err(format!("END `{end_name}` does not match SELECTOR `{name}`"));
        }
        self.expect(Tok::Semi)?;
        Ok(Stmt::SelectorDef {
            name,
            params,
            for_var,
            for_type,
            element_var,
            predicate,
        })
    }

    /// `CONSTRUCTOR name FOR var: reltype (P1: relty; k: INTEGER): result;
    ///  BEGIN branch, branch END name;`
    fn constructor_def(&mut self) -> Result<Stmt, LangError> {
        self.expect_kw(Kw::Constructor)?;
        let name = self.ident()?;
        self.expect_kw(Kw::For)?;
        let base_var = self.ident()?;
        self.expect(Tok::Colon)?;
        let base_type = self.ident()?;
        let mut params = Vec::new();
        if self.at(Tok::LParen) {
            self.bump();
            while !self.at(Tok::RParen) {
                let pname = self.ident()?;
                self.expect(Tok::Colon)?;
                params.push((pname, self.type_expr()?));
                if self.at(Tok::Semi) || self.at(Tok::Comma) {
                    self.bump();
                }
            }
            self.expect(Tok::RParen)?;
        }
        self.expect(Tok::Colon)?;
        let result_type = self.ident()?;
        self.expect(Tok::Semi)?;
        self.expect_kw(Kw::Begin)?;
        let mut branches = vec![self.branch()?];
        while self.at(Tok::Comma) {
            self.bump();
            branches.push(self.branch()?);
        }
        self.expect_kw(Kw::End)?;
        let end_name = self.ident()?;
        if end_name != name {
            return self.err(format!(
                "END `{end_name}` does not match CONSTRUCTOR `{name}`"
            ));
        }
        self.expect(Tok::Semi)?;
        Ok(Stmt::ConstructorDef {
            name,
            base_var,
            base_type,
            params,
            result_type,
            branches,
        })
    }

    fn insert_stmt(&mut self) -> Result<Stmt, LangError> {
        self.expect_kw(Kw::Insert)?;
        let relation = self.ident()?;
        self.expect(Tok::Lt)?;
        let mut values = vec![self.literal()?];
        while self.at(Tok::Comma) {
            self.bump();
            values.push(self.literal()?);
        }
        self.expect(Tok::Gt)?;
        self.expect(Tok::Semi)?;
        Ok(Stmt::Insert { relation, values })
    }

    fn literal(&mut self) -> Result<Value, LangError> {
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(Value::Int(n))
            }
            Tok::Card(n) => {
                self.bump();
                Ok(Value::Card(n))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Value::str(s))
            }
            Tok::Kw(Kw::True) => {
                self.bump();
                Ok(Value::Bool(true))
            }
            Tok::Kw(Kw::False) => {
                self.bump();
                Ok(Value::Bool(false))
            }
            Tok::Minus => {
                self.bump();
                match self.peek().clone() {
                    Tok::Int(n) => {
                        self.bump();
                        Ok(Value::Int(-n))
                    }
                    other => self.err(format!("expected an integer, found {other:?}")),
                }
            }
            other => self.err(format!("expected a literal, found {other:?}")),
        }
    }

    fn query_stmt(&mut self) -> Result<Stmt, LangError> {
        self.expect_kw(Kw::Query)?;
        let expr = self.range_expr()?;
        self.expect(Tok::Semi)?;
        let text = expr.to_string();
        Ok(Stmt::Query { expr, text })
    }

    // --------------------------------------------------------------
    // Expressions
    // --------------------------------------------------------------

    pub(crate) fn range_expr(&mut self) -> Result<RangeExpr, LangError> {
        self.nested(Self::unguarded_range)
    }

    /// range := primary suffix*
    /// suffix := `[` name `(` scalar-args `)` `]`
    ///         | `{` name `(` range-args [`;` scalar-args] `)` `}`
    fn unguarded_range(&mut self) -> Result<RangeExpr, LangError> {
        let mut e = self.range_primary()?;
        loop {
            match self.peek() {
                Tok::LBracket => {
                    self.bump();
                    let name = self.ident()?;
                    let mut args = Vec::new();
                    if self.at(Tok::LParen) {
                        self.bump();
                        while !self.at(Tok::RParen) {
                            args.push(self.scalar_expr()?);
                            if self.at(Tok::Comma) {
                                self.bump();
                            }
                        }
                        self.expect(Tok::RParen)?;
                    }
                    self.expect(Tok::RBracket)?;
                    e = RangeExpr::Selected {
                        base: Box::new(e),
                        selector: name,
                        args,
                    };
                }
                // Constructor application: `{` immediately followed by
                // an identifier (a set former starts with EACH or `<`).
                Tok::LBrace if matches!(self.peek_at(1), Tok::Ident(_)) => {
                    self.bump();
                    let name = self.ident()?;
                    let mut args = Vec::new();
                    let mut scalar_args = Vec::new();
                    if self.at(Tok::LParen) {
                        self.bump();
                        while !self.at(Tok::RParen) && !self.at(Tok::Semi) {
                            args.push(self.range_expr()?);
                            if self.at(Tok::Comma) {
                                self.bump();
                            }
                        }
                        if self.at(Tok::Semi) {
                            self.bump();
                            while !self.at(Tok::RParen) {
                                scalar_args.push(self.scalar_expr()?);
                                if self.at(Tok::Comma) {
                                    self.bump();
                                }
                            }
                        }
                        self.expect(Tok::RParen)?;
                    }
                    self.expect(Tok::RBrace)?;
                    e = RangeExpr::Constructed {
                        base: Box::new(e),
                        constructor: name,
                        args,
                        scalar_args,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn range_primary(&mut self) -> Result<RangeExpr, LangError> {
        match self.peek().clone() {
            Tok::Ident(n) => {
                self.bump();
                Ok(RangeExpr::Rel(n))
            }
            Tok::LBrace => {
                self.bump();
                let mut branches = vec![self.branch()?];
                while self.at(Tok::Comma) {
                    self.bump();
                    branches.push(self.branch()?);
                }
                self.expect(Tok::RBrace)?;
                Ok(RangeExpr::SetFormer(SetFormer { branches }))
            }
            other => self.err(format!("expected a relation expression, found {other:?}")),
        }
    }

    /// branch := [`<` scalar-list `>` OF] bindings `:` formula
    fn branch(&mut self) -> Result<Branch, LangError> {
        let target = if self.at(Tok::Lt) {
            self.bump();
            let mut exprs = vec![self.scalar_expr()?];
            while self.at(Tok::Comma) {
                self.bump();
                exprs.push(self.scalar_expr()?);
            }
            self.expect(Tok::Gt)?;
            self.expect_kw(Kw::Of)?;
            Some(exprs)
        } else {
            None
        };
        let bindings = self.bindings()?;
        self.expect(Tok::Colon)?;
        let predicate = self.formula()?;
        match target {
            Some(exprs) => Ok(Branch {
                target: Target::Tuple(exprs),
                bindings,
                predicate,
            }),
            None => {
                if bindings.len() != 1 {
                    return self.err("a branch without a target must bind exactly one variable");
                }
                let var = bindings[0].0.clone();
                Ok(Branch {
                    target: Target::Var(var),
                    bindings,
                    predicate,
                })
            }
        }
    }

    /// bindings := EACH var-list IN range (`,` EACH var-list IN range)*
    fn bindings(&mut self) -> Result<Vec<(String, RangeExpr)>, LangError> {
        let mut out = Vec::new();
        loop {
            self.expect_kw(Kw::Each)?;
            let mut vars = vec![self.ident()?];
            while self.at(Tok::Comma)
                && matches!(self.peek_at(1), Tok::Ident(_))
                && *self.peek_at(2) != Tok::Kw(Kw::In)
            {
                // `EACH f, b IN Rel` sugar — but `,(Ident) IN` would be
                // the next binding's var... disambiguate: a var-list
                // continues only if the token after the ident is `,` or
                // `IN`.
                self.bump();
                vars.push(self.ident()?);
            }
            // Handle the final var before IN in the sugar form:
            if self.at(Tok::Comma)
                && matches!(self.peek_at(1), Tok::Ident(_))
                && *self.peek_at(2) == Tok::Kw(Kw::In)
            {
                // ambiguous: `, x IN` could be sugar continuation or a
                // new binding with omitted EACH — DBPL has no omitted
                // EACH, so treat as sugar.
                self.bump();
                vars.push(self.ident()?);
            }
            self.expect_kw(Kw::In)?;
            let range = self.range_expr()?;
            for v in vars {
                out.push((v, range.clone()));
            }
            if self.at(Tok::Comma) && *self.peek_at(1) == Tok::Kw(Kw::Each) {
                self.bump();
                continue;
            }
            break;
        }
        Ok(out)
    }

    // Formula grammar: or_f := and_f (OR and_f)*
    //                  and_f := not_f (AND not_f)*
    //                  not_f := NOT not_f | atom
    pub(crate) fn formula(&mut self) -> Result<Formula, LangError> {
        let mut f = self.and_formula()?;
        while self.at(Tok::Kw(Kw::Or)) {
            self.bump();
            let r = self.and_formula()?;
            f = Formula::Or(Box::new(f), Box::new(r));
        }
        Ok(f)
    }

    fn and_formula(&mut self) -> Result<Formula, LangError> {
        let mut f = self.not_formula()?;
        while self.at(Tok::Kw(Kw::And)) {
            self.bump();
            let r = self.not_formula()?;
            f = Formula::And(Box::new(f), Box::new(r));
        }
        Ok(f)
    }

    fn not_formula(&mut self) -> Result<Formula, LangError> {
        self.nested(|p| {
            if p.at(Tok::Kw(Kw::Not)) {
                p.bump();
                let inner = p.not_formula()?;
                return Ok(Formula::Not(Box::new(inner)));
            }
            p.atom_formula()
        })
    }

    fn atom_formula(&mut self) -> Result<Formula, LangError> {
        match self.peek().clone() {
            Tok::Kw(Kw::True) => {
                self.bump();
                Ok(Formula::True)
            }
            Tok::Kw(Kw::False) => {
                self.bump();
                Ok(Formula::False)
            }
            Tok::Kw(Kw::Some) | Tok::Kw(Kw::All) => {
                let universal = self.at(Tok::Kw(Kw::All));
                self.bump();
                let mut vars = vec![self.ident()?];
                while self.at(Tok::Comma) {
                    self.bump();
                    vars.push(self.ident()?);
                }
                self.expect_kw(Kw::In)?;
                let range = self.range_expr()?;
                self.expect(Tok::LParen)?;
                let body = self.formula()?;
                self.expect(Tok::RParen)?;
                // `SOME r1, r2 IN R (p)` nests right.
                let mut f = body;
                for v in vars.into_iter().rev() {
                    f = if universal {
                        Formula::All(v, range.clone(), Box::new(f))
                    } else {
                        Formula::Some(v, range.clone(), Box::new(f))
                    };
                }
                Ok(f)
            }
            Tok::Lt => {
                // `<e1, …> IN range`
                self.bump();
                let mut exprs = vec![self.scalar_expr()?];
                while self.at(Tok::Comma) {
                    self.bump();
                    exprs.push(self.scalar_expr()?);
                }
                self.expect(Tok::Gt)?;
                self.expect_kw(Kw::In)?;
                let range = self.range_expr()?;
                Ok(Formula::TupleIn(exprs, range))
            }
            Tok::LParen => {
                // Could be a parenthesised formula or a parenthesised
                // scalar expression in a comparison: backtrack.
                let save = self.pos;
                self.bump();
                if let Ok(f) = self.formula() {
                    if self.at(Tok::RParen) {
                        // Ensure it is not actually a scalar expr
                        // followed by a comparison (e.g. `(x) = 1` can
                        // parse either way; comparison requires a cmp
                        // token after `)`).
                        let after = self.peek_at(1).clone();
                        let is_cmp = matches!(
                            after,
                            Tok::Eq | Tok::Ne | Tok::Lt | Tok::Le | Tok::Gt | Tok::Ge
                        );
                        if !is_cmp {
                            self.bump(); // `)`
                            return Ok(f);
                        }
                    }
                }
                self.pos = save;
                self.comparison()
            }
            _ => {
                // Membership `v IN range` or a comparison.
                if let Tok::Ident(v) = self.peek().clone() {
                    if *self.peek_at(1) == Tok::Kw(Kw::In) {
                        self.bump();
                        self.bump();
                        let range = self.range_expr()?;
                        return Ok(Formula::Member(v, range));
                    }
                }
                self.comparison()
            }
        }
    }

    fn comparison(&mut self) -> Result<Formula, LangError> {
        let l = self.scalar_expr()?;
        let op = match self.peek() {
            Tok::Eq => CmpOp::Eq,
            Tok::Ne => CmpOp::Ne,
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            other => return self.err(format!("expected a comparison operator, found {other:?}")),
        };
        self.bump();
        let r = self.scalar_expr()?;
        Ok(Formula::Cmp(l, op, r))
    }

    // scalar := term ((+|-) term)*
    // term   := factor ((*|DIV|MOD) factor)*
    // factor := literal | ident[.ident] | ( scalar )
    pub(crate) fn scalar_expr(&mut self) -> Result<ScalarExpr, LangError> {
        let mut e = self.term()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => ArithOp::Add,
                Tok::Minus => ArithOp::Sub,
                _ => break,
            };
            self.bump();
            let r = self.term()?;
            e = ScalarExpr::Arith(Box::new(e), op, Box::new(r));
        }
        Ok(e)
    }

    fn term(&mut self) -> Result<ScalarExpr, LangError> {
        let mut e = self.factor()?;
        loop {
            let op = match self.peek() {
                Tok::Star => ArithOp::Mul,
                Tok::Kw(Kw::Div) => ArithOp::Div,
                Tok::Kw(Kw::Mod) => ArithOp::Mod,
                _ => break,
            };
            self.bump();
            let r = self.factor()?;
            e = ScalarExpr::Arith(Box::new(e), op, Box::new(r));
        }
        Ok(e)
    }

    fn factor(&mut self) -> Result<ScalarExpr, LangError> {
        self.nested(Self::unguarded_factor)
    }

    fn unguarded_factor(&mut self) -> Result<ScalarExpr, LangError> {
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(ScalarExpr::Const(Value::Int(n)))
            }
            Tok::Card(n) => {
                self.bump();
                Ok(ScalarExpr::Const(Value::Card(n)))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(ScalarExpr::Const(Value::str(s)))
            }
            Tok::Kw(Kw::True) => {
                self.bump();
                Ok(ScalarExpr::Const(Value::Bool(true)))
            }
            Tok::Kw(Kw::False) => {
                self.bump();
                Ok(ScalarExpr::Const(Value::Bool(false)))
            }
            Tok::Minus => {
                self.bump();
                let inner = self.factor()?;
                Ok(ScalarExpr::Arith(
                    Box::new(ScalarExpr::Const(Value::Int(0))),
                    ArithOp::Sub,
                    Box::new(inner),
                ))
            }
            Tok::Ident(name) => {
                self.bump();
                if self.at(Tok::Dot) {
                    self.bump();
                    let attr = self.ident()?;
                    Ok(ScalarExpr::Attr(name, attr))
                } else {
                    // A bare identifier in scalar position is a
                    // parameter reference (e.g. `Obj`).
                    Ok(ScalarExpr::Param(name))
                }
            }
            Tok::LParen => {
                self.bump();
                let e = self.scalar_expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            other => self.err(format!("expected a scalar expression, found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_calculus::builder as b;

    #[test]
    fn parse_type_defs() {
        let s = parse_script(
            "TYPE parttype = STRING;\n\
             TYPE partid = RANGE 1..100;\n\
             TYPE infrontrel = RELATION ... OF RECORD front, back: parttype END;\n\
             TYPE objectrel = RELATION part OF RECORD part: parttype; weight: INTEGER END;",
        )
        .unwrap();
        assert_eq!(s.len(), 4);
        assert!(matches!(
            &s[1],
            Stmt::TypeDef {
                def: TypeExpr::Range(1, 100),
                ..
            }
        ));
        match &s[2] {
            Stmt::TypeDef {
                def: TypeExpr::Relation { key, fields },
                ..
            } => {
                assert!(key.is_empty());
                assert_eq!(fields.len(), 2);
                assert_eq!(fields[0].0, "front");
            }
            other => panic!("{other:?}"),
        }
        match &s[3] {
            Stmt::TypeDef {
                def: TypeExpr::Relation { key, fields },
                ..
            } => {
                assert_eq!(key, &vec!["part".to_string()]);
                assert_eq!(fields.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_selector_from_the_paper() {
        let s = parse_script(
            "SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel ();\n\
             BEGIN EACH r IN Rel: r.front = Obj END hidden_by;",
        )
        .unwrap();
        match &s[0] {
            Stmt::SelectorDef {
                name,
                params,
                element_var,
                predicate,
                ..
            } => {
                assert_eq!(name, "hidden_by");
                assert_eq!(params.len(), 1);
                assert_eq!(element_var, "r");
                assert_eq!(*predicate, b::eq(b::attr("r", "front"), b::param("Obj")));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_recursive_constructor_from_the_paper() {
        let s = parse_script(
            "CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;\n\
             BEGIN EACH r IN Rel: TRUE,\n\
               <f.front, b.tail> OF EACH f IN Rel,\n\
                 EACH b IN Rel{ahead()}: f.back = b.head\n\
             END ahead;",
        )
        .unwrap();
        match &s[0] {
            Stmt::ConstructorDef {
                name,
                branches,
                base_var,
                result_type,
                ..
            } => {
                assert_eq!(name, "ahead");
                assert_eq!(base_var, "Rel");
                assert_eq!(result_type, "aheadrel");
                assert_eq!(branches.len(), 2);
                assert!(matches!(
                    &branches[1].bindings[1].1,
                    RangeExpr::Constructed { constructor, .. } if constructor == "ahead"
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_mutual_constructor_with_params() {
        let s = parse_script(
            "CONSTRUCTOR above FOR Rel: ontoprel (Infront: infrontrel): aboverel;\n\
             BEGIN EACH r IN Rel: TRUE,\n\
               <r.top, ah.tail> OF EACH r IN Rel,\n\
                 EACH ah IN Infront{ahead(Rel)}: r.base = ah.head\n\
             END above;",
        )
        .unwrap();
        match &s[0] {
            Stmt::ConstructorDef { params, .. } => {
                assert_eq!(
                    params,
                    &vec![(
                        "Infront".to_string(),
                        TypeExpr::Named("infrontrel".to_string())
                    )]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_each_var_list_sugar() {
        // The paper's `EACH f,b IN Infront`.
        let e =
            parse_expr("{<f.front, b.back> OF EACH f, b IN Infront: f.back = b.front}").unwrap();
        match e {
            RangeExpr::SetFormer(sf) => {
                assert_eq!(sf.branches[0].bindings.len(), 2);
                assert_eq!(sf.branches[0].bindings[0].0, "f");
                assert_eq!(sf.branches[0].bindings[1].0, "b");
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn parse_applications_and_composition() {
        let e = parse_expr("Infront[hidden_by(\"table\")]{ahead(Ontop)}").unwrap();
        assert_eq!(e.to_string(), "Infront[hidden_by(\"table\")]{ahead(Ontop)}");
        // Scalar args after `;`.
        let e2 = parse_expr("N{below(; 4)}").unwrap();
        match &e2 {
            RangeExpr::Constructed {
                scalar_args, args, ..
            } => {
                assert!(args.is_empty());
                assert_eq!(scalar_args.len(), 1);
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn parse_quantifiers_membership_negation() {
        let e = parse_expr(
            "{EACH r IN Infront: SOME o1, o2 IN Objects (r.front = o1.part AND r.back = o2.part)}",
        )
        .unwrap();
        let shown = e.to_string();
        assert!(shown.contains("SOME o1 IN Objects"));
        assert!(shown.contains("SOME o2 IN Objects"));

        let m = parse_expr("{EACH r IN Rel: NOT (r IN Rel)}").unwrap();
        assert!(m.to_string().contains("NOT (r IN Rel)"));

        let t = parse_expr("{EACH r IN Rel: <r.back, r.front> IN Rel}").unwrap();
        assert!(t.to_string().contains("<r.back, r.front> IN Rel"));
    }

    #[test]
    fn parse_arithmetic_with_precedence() {
        let e = parse_expr("{EACH r IN N: r.n + 2 * 3 = 7}").unwrap();
        // Multiplication binds tighter.
        assert!(e.to_string().contains("(r.n + (2 * 3))"));
    }

    #[test]
    fn parse_strange_constructor() {
        // §3.3's strange, with CARDINAL literals.
        let s = parse_script(
            "CONSTRUCTOR strange FOR Baserel: cardrel (): cardrel;\n\
             BEGIN EACH r IN Baserel:\n\
               NOT SOME s IN Baserel{strange()} (r.number = s.number + 1C)\n\
             END strange;",
        )
        .unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn parse_insert_and_query() {
        let s = parse_script(
            "INSERT Infront <\"vase\", \"table\">;\n\
             QUERY {EACH r IN Infront: TRUE};",
        )
        .unwrap();
        assert!(matches!(&s[0], Stmt::Insert { values, .. } if values.len() == 2));
        assert!(matches!(&s[1], Stmt::Query { .. }));
    }

    #[test]
    fn parenthesised_formula_vs_scalar() {
        let f = parse_expr("{EACH r IN N: (r.n = 1 OR r.n = 2) AND r.n # 3}").unwrap();
        let shown = f.to_string();
        assert!(shown.contains("OR"));
        assert!(shown.contains("AND"));
        // Parenthesised scalar on the left of a comparison.
        let g = parse_expr("{EACH r IN N: (r.n + 1) = 2}").unwrap();
        assert!(g.to_string().contains("(r.n + 1) = 2"));
    }

    #[test]
    fn parse_errors_have_positions() {
        let err = parse_script("TYPE = STRING;").unwrap_err();
        assert!(matches!(err, LangError::Parse { line: 1, .. }));
        let err = parse_script("CONSTRUCTOR c FOR R: t (): u;\nBEGIN EACH r IN R: TRUE END wrong;")
            .unwrap_err();
        assert!(err.to_string().contains("does not match"));
    }

    /// Three ways to nest without bound: `NOT`s, parentheses around a
    /// formula, and set formers ranging over set formers.
    fn nested(shape: usize, depth: usize) -> String {
        match shape {
            0 => format!("{{EACH r IN R: {}TRUE}}", "NOT ".repeat(depth)),
            1 => format!(
                "{{EACH r IN R: {}TRUE{}}}",
                "(".repeat(depth),
                ")".repeat(depth)
            ),
            _ => format!(
                "{}R{}",
                "{EACH r IN ".repeat(depth),
                ": TRUE}".repeat(depth)
            ),
        }
    }

    #[test]
    fn input_nested_past_the_bound_is_an_error_not_a_crash() {
        for shape in 0..3 {
            let err = parse_expr(&nested(shape, 100_000)).unwrap_err();
            assert!(
                err.to_string().contains("nesting deeper than"),
                "shape {shape}: {err}"
            );
        }
    }

    #[test]
    fn the_deepest_accepted_input_runs_end_to_end() {
        for shape in 0..3 {
            // Acceptance is monotone in the depth: binary-search the
            // deepest input the parser takes.
            let (mut ok, mut refused) = (0, MAX_NESTING + 1);
            while refused - ok > 1 {
                let mid = (ok + refused) / 2;
                if parse_expr(&nested(shape, mid)).is_ok() {
                    ok = mid;
                } else {
                    refused = mid;
                }
            }
            assert!(ok >= MAX_NESTING / 2, "shape {shape}: only {ok} levels");
            let mut db = dc_core::Database::new();
            let script = format!(
                "TYPE t = STRING;\n\
                 TYPE rel = RELATION ... OF RECORD a: t END;\n\
                 VAR R: rel;\n\
                 INSERT R <\"x\">;\n\
                 QUERY {};",
                nested(shape, ok)
            );
            let out = crate::run_script(&mut db, &script).unwrap();
            // An even number of NOTs, like any parenthesised or nested
            // TRUE, keeps the one tuple.
            let expected = usize::from(shape != 0 || ok % 2 == 0);
            assert_eq!(out[0].relation.len(), expected, "shape {shape} at {ok}");
        }
    }

    #[test]
    fn negative_literals() {
        let s = parse_script("INSERT N <-5>;").unwrap();
        assert!(matches!(&s[0], Stmt::Insert { values, .. } if values[0] == Value::Int(-5)));
        let t = parse_script("TYPE t = RANGE -10..10;").unwrap();
        assert!(matches!(
            &t[0],
            Stmt::TypeDef {
                def: TypeExpr::Range(-10, 10),
                ..
            }
        ));
    }
}
