//! Quant graphs and augmented quant graphs (§4, Fig. 3).
//!
//! A quant graph represents a relational calculus query: "it has a node
//! for each tuple variable with its range definition and a directed arc
//! in quantifier direction for each join term". The *augmented* quant
//! graph adds "special nodes representing the head of constructors and
//! directed arcs representing the attribute relationships between the
//! result relation and the range definitions" (step 1), and "directed
//! arcs from each quantified node with a constructed range relation to
//! the corresponding constructor head" (step 2) — yielding the
//! equivalent of a clause interconnectivity graph [Sick 76], whose
//! cyclic components are the recursive queries (step 3).
//!
//! [`QuantGraph::render_ascii`] regenerates the paper's Figure 3.

use dc_calculus::ast::{Branch, Formula, RangeExpr, ScalarExpr, Target};
use dc_calculus::rewrite;
use dc_calculus::CmpOp;
use dc_value::FxHashMap;

use crate::constructor::Constructor;

/// Node kinds of the augmented quant graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A constructor head ("special node", §4 step 1).
    Head {
        /// Constructor name.
        constructor: String,
    },
    /// A tuple variable with its range definition.
    Quant {
        /// Variable name.
        var: String,
        /// Rendered range definition.
        range: String,
        /// Is the range a constructor application?
        constructed: bool,
        /// Constructor name if constructed.
        constructor: Option<String>,
    },
}

/// Edge kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeKind {
    /// A join term between two quantified nodes (label: the equality).
    Join,
    /// Attribute relationship between head and a range definition
    /// (label: `result-attr = range-attr`).
    AttrFlow,
    /// Arc from a quantified node with constructed range to the
    /// constructor head (§4 step 2 — interconnectivity).
    Interconnect,
}

/// A graph node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node id (index into `QuantGraph::nodes`).
    pub id: usize,
    /// Kind and payload.
    pub kind: NodeKind,
}

/// A directed, labelled edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Source node id.
    pub from: usize,
    /// Target node id.
    pub to: usize,
    /// Human-readable label.
    pub label: String,
    /// Kind.
    pub kind: EdgeKind,
}

/// The augmented quant graph.
#[derive(Debug, Clone, Default)]
pub struct QuantGraph {
    /// Nodes.
    pub nodes: Vec<Node>,
    /// Edges.
    pub edges: Vec<Edge>,
}

impl QuantGraph {
    fn add_node(&mut self, kind: NodeKind) -> usize {
        let id = self.nodes.len();
        self.nodes.push(Node { id, kind });
        id
    }

    fn add_edge(&mut self, from: usize, to: usize, label: impl Into<String>, kind: EdgeKind) {
        self.edges.push(Edge {
            from,
            to,
            label: label.into(),
            kind,
        });
    }

    /// Build the augmented quant graph of one constructor (§4 steps
    /// 1–2). Each branch contributes quant nodes for its bindings, join
    /// arcs for its equality terms, attribute-flow arcs from the head,
    /// and interconnect arcs from constructed ranges to the head.
    pub fn augmented(ctor: &Constructor) -> QuantGraph {
        let mut g = QuantGraph::default();
        let head = g.add_node(NodeKind::Head {
            constructor: ctor.name.clone(),
        });
        for branch in &ctor.body.branches {
            g.add_branch(ctor, head, branch);
        }
        g
    }

    fn add_branch(&mut self, ctor: &Constructor, head: usize, branch: &Branch) {
        let mut var_nodes: FxHashMap<String, usize> = FxHashMap::default();
        for (var, range) in &branch.bindings {
            let (constructed, constructor) = match range {
                RangeExpr::Constructed { constructor, .. } => (true, Some(constructor.clone())),
                _ => (false, None),
            };
            let id = self.add_node(NodeKind::Quant {
                var: var.clone(),
                range: range.to_string(),
                constructed,
                constructor: constructor.clone(),
            });
            var_nodes.insert(var.clone(), id);
            // Step 2: quantified node with constructed range →
            // constructor head (self-recursion points to this graph's
            // head; mutual recursion to a peer's head resolved by
            // `system`).
            if let Some(cname) = constructor {
                if cname == ctor.name {
                    self.add_edge(
                        id,
                        head,
                        format!("recursive `{cname}`"),
                        EdgeKind::Interconnect,
                    );
                }
            }
        }
        // Attribute relationships: head → ranges used in the target.
        match &branch.target {
            Target::Var(v) => {
                if let Some(&n) = var_nodes.get(v) {
                    self.add_edge(head, n, "copy", EdgeKind::AttrFlow);
                }
            }
            Target::Tuple(exprs) => {
                for (i, e) in exprs.iter().enumerate() {
                    if let ScalarExpr::Attr(v, a) = e {
                        if let Some(&n) = var_nodes.get(v) {
                            let result_attr = ctor
                                .result
                                .attributes()
                                .get(i)
                                .map(|at| at.name.clone())
                                .unwrap_or_else(|| format!("#{i}"));
                            self.add_edge(
                                head,
                                n,
                                format!("{result_attr} = {v}.{a}"),
                                EdgeKind::AttrFlow,
                            );
                        }
                    }
                }
            }
        }
        // Join arcs from the equality terms between two bound variables.
        for term in rewrite::conjuncts(&branch.predicate) {
            if let Formula::Cmp(ScalarExpr::Attr(lv, la), CmpOp::Eq, ScalarExpr::Attr(rv, ra)) =
                term
            {
                if let (Some(&from), Some(&to)) = (var_nodes.get(lv), var_nodes.get(rv)) {
                    self.add_edge(from, to, format!("{lv}.{la} = {rv}.{ra}"), EdgeKind::Join);
                }
            }
        }
    }

    /// Build the interconnectivity graph of a *system* of constructors:
    /// one head node per constructor, an interconnect arc for every
    /// application of one constructor inside another's body.
    pub fn system(ctors: &[Constructor]) -> QuantGraph {
        let mut g = QuantGraph::default();
        let mut heads: FxHashMap<String, usize> = FxHashMap::default();
        for c in ctors {
            let id = g.add_node(NodeKind::Head {
                constructor: c.name.clone(),
            });
            heads.insert(c.name.clone(), id);
        }
        for c in ctors {
            let body = RangeExpr::SetFormer(c.body.clone());
            for app in rewrite::collect_constructed(&body) {
                if let RangeExpr::Constructed { constructor, .. } = app {
                    if let (Some(&from), Some(&to)) = (heads.get(&c.name), heads.get(&constructor))
                    {
                        g.add_edge(
                            from,
                            to,
                            format!("applies `{constructor}`"),
                            EdgeKind::Interconnect,
                        );
                    }
                }
            }
        }
        g
    }

    /// Strongly connected components (Tarjan), in reverse topological
    /// order. Components of size > 1, or single nodes with a self-loop,
    /// are the recursive cycles of §4 step 3.
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        struct T {
            index: Vec<Option<usize>>,
            low: Vec<usize>,
            on_stack: Vec<bool>,
            stack: Vec<usize>,
            next: usize,
            out: Vec<Vec<usize>>,
            adj: Vec<Vec<usize>>,
        }
        impl T {
            fn strongconnect(&mut self, v: usize) {
                let index = self.next;
                self.index[v] = Some(index);
                self.low[v] = index;
                self.next += 1;
                self.stack.push(v);
                self.on_stack[v] = true;
                for i in 0..self.adj[v].len() {
                    let w = self.adj[v][i];
                    match self.index[w] {
                        None => {
                            self.strongconnect(w);
                            self.low[v] = self.low[v].min(self.low[w]);
                        }
                        Some(iw) if self.on_stack[w] => self.low[v] = self.low[v].min(iw),
                        Some(_) => {}
                    }
                }
                if self.low[v] == index {
                    // `v` is on the stack below everything pushed since,
                    // so popping down to it ends the component.
                    let mut comp = Vec::new();
                    while let Some(w) = self.stack.pop() {
                        self.on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    self.out.push(comp);
                }
            }
        }
        let n = self.nodes.len();
        let mut adj = vec![Vec::new(); n];
        for e in &self.edges {
            adj[e.from].push(e.to);
        }
        let mut t = T {
            index: vec![None; n],
            low: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            next: 0,
            out: Vec::new(),
            adj,
        };
        for v in 0..n {
            if t.index[v].is_none() {
                t.strongconnect(v);
            }
        }
        t.out
    }

    /// Is the component containing `node` cyclic (recursive)?
    pub fn is_recursive(&self, node: usize) -> bool {
        self.sccs()
            .into_iter()
            .find(|comp| comp.contains(&node))
            .is_some_and(|comp| {
                comp.len() > 1 || self.edges.iter().any(|e| e.from == node && e.to == node)
            })
    }

    /// Render in the style of the paper's Figure 3: the constructor
    /// head on top, quant boxes below, arcs as labelled lines.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        // Head banner(s).
        for n in &self.nodes {
            if let NodeKind::Head { constructor } = &n.kind {
                let label = format!("CONSTRUCTOR {constructor}");
                let width = label.len() + 4;
                out.push('+');
                out.push_str(&"-".repeat(width));
                out.push_str("+\n");
                out.push_str(&format!("|  {label}  |\n"));
                out.push('+');
                out.push_str(&"-".repeat(width));
                out.push_str("+\n");
            }
        }
        // Attribute-flow arcs from the head.
        for e in &self.edges {
            if e.kind == EdgeKind::AttrFlow {
                out.push_str(&format!("    | {}\n    v\n", e.label));
            }
        }
        // Quant boxes.
        for n in &self.nodes {
            if let NodeKind::Quant {
                var,
                range,
                constructed,
                ..
            } = &n.kind
            {
                let label = format!("EACH {var} IN {range}");
                let width = label.len() + 2;
                out.push('+');
                out.push_str(&"-".repeat(width));
                out.push_str("+\n");
                out.push_str(&format!(
                    "| {label} |{}\n",
                    if *constructed { "   (*)" } else { "" }
                ));
                out.push('+');
                out.push_str(&"-".repeat(width));
                out.push_str("+\n");
            }
        }
        // Join and interconnect arcs.
        for e in &self.edges {
            match e.kind {
                EdgeKind::Join => {
                    out.push_str(&format!(
                        "  [{}] --{}--> [{}]\n",
                        self.short(e.from),
                        e.label,
                        self.short(e.to)
                    ));
                }
                EdgeKind::Interconnect => {
                    out.push_str(&format!(
                        "  [{}] =={}==> [{}]\n",
                        self.short(e.from),
                        e.label,
                        self.short(e.to)
                    ));
                }
                EdgeKind::AttrFlow => {}
            }
        }
        out
    }

    fn short(&self, id: usize) -> String {
        match &self.nodes[id].kind {
            NodeKind::Head { constructor } => format!("head:{constructor}"),
            NodeKind::Quant { var, .. } => format!("quant:{var}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_calculus::ast::{Branch, SetFormer};
    use dc_calculus::builder::*;
    use dc_value::{Domain, Schema};

    fn infrontrel() -> Schema {
        Schema::of(&[("front", Domain::Str), ("back", Domain::Str)])
    }

    fn aheadrel() -> Schema {
        Schema::of(&[("head", Domain::Str), ("tail", Domain::Str)])
    }

    fn ahead() -> Constructor {
        Constructor {
            name: "ahead".into(),
            base_param: ("Rel".into(), infrontrel()),
            rel_params: vec![],
            scalar_params: vec![],
            result: aheadrel(),
            body: SetFormer {
                branches: vec![
                    Branch::each("r", rel("Rel"), tru()),
                    Branch::projecting(
                        vec![attr("f", "front"), attr("b", "tail")],
                        vec![
                            ("f".into(), rel("Rel")),
                            ("b".into(), rel("Rel").construct("ahead", vec![])),
                        ],
                        eq(attr("f", "back"), attr("b", "head")),
                    ),
                ],
            },
        }
    }

    #[test]
    fn augmented_graph_structure_matches_fig3() {
        let g = QuantGraph::augmented(&ahead());
        // Head + r + f + b = 4 nodes.
        assert_eq!(g.nodes.len(), 4);
        // Fig 3 content: a join arc f→b labelled back=head, an
        // interconnect arc b→head, attr-flow arcs for front and tail,
        // and a copy arc for branch 1.
        let joins: Vec<&Edge> = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Join)
            .collect();
        assert_eq!(joins.len(), 1);
        assert!(joins[0].label.contains("f.back = b.head"));
        let inter: Vec<&Edge> = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Interconnect)
            .collect();
        assert_eq!(inter.len(), 1);
        let flows: Vec<&Edge> = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::AttrFlow)
            .collect();
        assert_eq!(flows.len(), 3); // copy + front + tail
    }

    #[test]
    fn recursion_detected_via_cycle() {
        let g = QuantGraph::augmented(&ahead());
        // The head participates in a cycle head → b (attr flow? no —
        // b → head interconnect and head → b attr flow).
        assert!(g.is_recursive(0));
    }

    #[test]
    fn nonrecursive_constructor_acyclic() {
        let mut c = ahead();
        // Make branch 2 non-recursive.
        c.body.branches[1] = Branch::projecting(
            vec![attr("f", "front"), attr("b", "back")],
            vec![("f".into(), rel("Rel")), ("b".into(), rel("Rel"))],
            eq(attr("f", "back"), attr("b", "front")),
        );
        let g = QuantGraph::augmented(&c);
        assert!(!g.is_recursive(0));
    }

    #[test]
    fn system_graph_mutual_recursion() {
        let mut ahead_m = ahead();
        ahead_m.body.branches.push(Branch::projecting(
            vec![attr("r", "front"), attr("ab", "tail")],
            vec![
                ("r".into(), rel("Rel")),
                ("ab".into(), rel("Ontop").construct("above", vec![])),
            ],
            eq(attr("r", "back"), attr("ab", "head")),
        ));
        let mut above = ahead();
        above.name = "above".into();
        above.body.branches[1] = Branch::projecting(
            vec![attr("f", "front"), attr("b", "tail")],
            vec![
                ("f".into(), rel("Rel")),
                ("b".into(), rel("Infront").construct("ahead", vec![])),
            ],
            eq(attr("f", "back"), attr("b", "head")),
        );
        let g = QuantGraph::system(&[ahead_m, above]);
        assert_eq!(g.nodes.len(), 2);
        // ahead → above, above → ahead, ahead → ahead (self).
        let sccs = g.sccs();
        let big: Vec<&Vec<usize>> = sccs.iter().filter(|c| c.len() == 2).collect();
        assert_eq!(big.len(), 1, "ahead and above form one SCC");
        assert!(g.is_recursive(0));
        assert!(g.is_recursive(1));
    }

    #[test]
    fn independent_constructors_separate_sccs() {
        let a = ahead();
        let mut b = ahead();
        b.name = "other".into();
        b.body.branches[1] = Branch::projecting(
            vec![attr("f", "front"), attr("b", "tail")],
            vec![
                ("f".into(), rel("Rel")),
                ("b".into(), rel("Rel").construct("other", vec![])),
            ],
            eq(attr("f", "back"), attr("b", "head")),
        );
        let g = QuantGraph::system(&[a, b]);
        let sccs = g.sccs();
        assert_eq!(sccs.len(), 2);
        assert!(sccs.iter().all(|c| c.len() == 1));
        // Each is self-recursive.
        assert!(g.is_recursive(0));
        assert!(g.is_recursive(1));
    }

    #[test]
    fn fig3_rendering_contains_the_papers_elements() {
        let g = QuantGraph::augmented(&ahead());
        let s = g.render_ascii();
        // Elements of the paper's Figure 3.
        assert!(s.contains("CONSTRUCTOR ahead"), "{s}");
        assert!(s.contains("EACH r IN Rel"), "{s}");
        assert!(s.contains("EACH f IN Rel"), "{s}");
        assert!(s.contains("EACH b IN Rel{ahead()}"), "{s}");
        assert!(s.contains("f.back = b.head"), "{s}");
    }
}
