//! The MOA → MIL term rewriter (Section 4.3).
//!
//! "The idea behind the algebra implementation is to translate a query on
//! the representation of the structured operands into a representation of
//! the structured query result": for MOA operation `moa` on value `X`
//! stored in BATs `X_1…X_n` under structure function `S_X`, the translator
//! emits a MIL program `mil` and a structure function `S_Y` with
//! `S_Y(mil(X_1…X_n)) = moa(X)` (Figure 6).
//!
//! The rewriter works rule-per-operation. The flagship rules:
//!
//! * **selection** — `select[f](SET(A,X)) → SET(semijoin(A, T(f(X))), X)`;
//!   comparisons against literals push down to (range-)selects on the
//!   attribute BATs with joins back along the reference path. Any other
//!   comparison of a reference path with a literal (`part.name contains
//!   c`) is the pullback along the path of the same test at its far end:
//!   a `[f]` multiplex and `select(·, true)` over the referenced class,
//!   joined back — unless an earlier conjunct already restricted the
//!   candidates, whose gather is then the smaller job. A
//!   conjunction is flattened and its conjuncts chain left to right: each
//!   is restricted to the previous qualifier — a single-hop conjunct by
//!   `semijoin`ing its attribute BAT first (Figure 10), a multi-hop one by
//!   a `semijoin` after its walk back. Over object elements, pushed-down
//!   conjuncts whose paths start with the same reference
//!   (`order.orderdate >= d ∧ order.orderdate < e`) are one group,
//!   evaluated at the group's first position as a conjunction over the
//!   referenced class (prefix stripped, grouped again there) and joined
//!   back once. The emission uses only `select`, `join` and `semijoin`,
//!   pure functions of their operands, and each select keeps its
//!   parameter slot. A disjunction is the rule applied once more:
//!   `semijoin(A, concat(semijoin(A, qa), semijoin(A, qb)))`, the index's
//!   subset in index order. Over tuple elements (the pairs of a join, the
//!   members of an unnest) the selected index re-scopes every field — a
//!   restriction commutes with a projection — so later gathers run over
//!   the survivors only;
//! * **select over a join** — `select(join_eq(L, R, lk, rk), l.f = r.g)`
//!   is a join on both keys: one two-key `join(lk, rk, f, g)` finds the
//!   pairs the select keeps, and only those are numbered and gathered;
//!   the other conjuncts select over its result;
//! * **semijoin** — `L ⋉ σp(R) = L ⋉ σp(R ⋉ L)` (the semijoin
//!   reduction): for `semijoin_eq(left, select[p](R), this, f)` with `f` a
//!   one-hop reference of `R` to the left's class and a left that is a
//!   selection, not its bare extent, `R` is first restricted to the left's
//!   partners, `mirror(semijoin(mirror(R_f), left))`, and `p` is evaluated
//!   over them only (at SF 0.1 Q4 tests 23 011 items, not 599 825). The
//!   restriction is `Mirror`/`Semijoin` only — pure, no fresh oids — so
//!   CSE and DCE treat it like any selection. Any other shape is
//!   semijoined as before: the right in full, then `semijoin` of the
//!   left's keys with its keys;
//! * **nested selection** (§4.3.2) — the same rule applied to the inner
//!   index: all nested sets are reduced *in one flat selection*;
//! * **nest** — `group` on the key BATs, with the group BAT itself
//!   becoming the index of the nested `rest` sets (Figure 10 lines 7–9);
//!   the kernels read the grouping `group` built for INDEX and the key
//!   fields, so the tail does not derive it again;
//! * **aggregation over nested sets** — `{g}(join(index.mirror, values))`,
//!   one bulk set-aggregate instead of per-set iteration (lines 14–15);
//!   `avg` over `dbl` members is `{sum}/{count}`, the statements CSE
//!   shares with the plan's own `{sum}` and INDEX;
//! * **projection** — value attributes are `semijoin`ed with the selected
//!   index (the datavector fast path) and combined with multiplexed `[f]`
//!   operations.

use std::collections::HashMap;
use std::sync::Arc;

use monet::atom::{AtomType, AtomValue};
use monet::bat::Bat;
use monet::config::{EngineConfig, PlanConfig};
use monet::ctx::ExecCtx;
use monet::db::Db;
use monet::mil::opt::OptLevel;
use monet::mil::{execute, BoundProgram, Env, MilArg, MilOp, MilProgram, ParamLoc, Var};
use monet::ops::{AggFunc, ScalarFunc};

use crate::algebra::{and_all, Expr, Pred, Scalar, SetExpr, SetValued, NEST_REST};
use crate::catalog::Catalog;
use crate::error::{MoaError, Result};
use crate::structure::{Structure, StructuredSet};
use crate::types::MoaType;

/// Element description of a translated set, keyed by element id.
#[derive(Debug, Clone)]
pub enum ElemInfo {
    /// Elements are objects of the class; ids are their oids.
    Obj(String),
    /// Elements are atomic values: `bat` is `[elem_id, value]`; a
    /// `ref_class` marks oid values that are object references.
    Atom { bat: Var, ref_class: Option<String> },
    /// Elements are tuples.
    Tup(Vec<(String, FieldInfo)>),
}

/// One tuple field of a translated element.
#[derive(Debug, Clone)]
pub enum FieldInfo {
    /// `[elem_id, value]`. `scope` names the index variable the BAT is
    /// already restricted to (attribute access skips the redundant
    /// restricting semijoin when the scope matches).
    Scalar { bat: Var, scope: Option<Var> },
    /// `[elem_id, target_oid]` reference to objects of `class`.
    RefTo { bat: Var, class: String, scope: Option<Var> },
    /// Nested set: `index` is `[child_id, elem_id]`, `elem` describes the
    /// children.
    Nested { index: Var, elem: Box<ElemInfo> },
    /// Nested tuple (from joins/unnest).
    TupF(Vec<(String, FieldInfo)>),
}

/// A translated set expression: the index BAT variable (heads are element
/// ids) plus the element description.
#[derive(Debug, Clone)]
pub struct TransSet {
    pub index: Var,
    pub elem: ElemInfo,
}

/// Structure specification over MIL variables; instantiated against the
/// interpreter environment to yield the result's [`StructuredSet`].
#[derive(Debug, Clone)]
pub enum StructSpec {
    Atom(Var),
    Ref { bat: Var, class: String },
    Tuple(Vec<(String, StructSpec)>),
    Set { index: Var, inner: Box<StructSpec> },
}

impl StructSpec {
    fn vars(&self, out: &mut Vec<Var>) {
        match self {
            StructSpec::Atom(v) | StructSpec::Ref { bat: v, .. } => out.push(*v),
            StructSpec::Tuple(fields) => fields.iter().for_each(|(_, s)| s.vars(out)),
            StructSpec::Set { index, inner } => {
                out.push(*index);
                inner.vars(out);
            }
        }
    }

    /// Re-point every variable through `f` (after the plan optimizer
    /// renumbered the program).
    fn remap_vars(&mut self, f: &impl Fn(Var) -> Var) {
        match self {
            StructSpec::Atom(v) | StructSpec::Ref { bat: v, .. } => *v = f(*v),
            StructSpec::Tuple(fields) => fields.iter_mut().for_each(|(_, s)| s.remap_vars(f)),
            StructSpec::Set { index, inner } => {
                *index = f(*index);
                inner.remap_vars(f);
            }
        }
    }

    fn instantiate(&self, env: &Env) -> Result<Structure> {
        Ok(match self {
            StructSpec::Atom(v) => Structure::AtomBat(env.bat(*v)?.clone()),
            StructSpec::Ref { bat, class } => {
                Structure::RefBat { bat: env.bat(*bat)?.clone(), class: class.clone() }
            }
            StructSpec::Tuple(fields) => Structure::Tuple(
                fields
                    .iter()
                    .map(|(n, s)| Ok((n.clone(), s.instantiate(env)?)))
                    .collect::<Result<_>>()?,
            ),
            StructSpec::Set { index, inner } => Structure::Set {
                index: env.bat(*index)?.clone(),
                inner: Box::new(inner.instantiate(env)?),
            },
        })
    }
}

/// A fully translated query: MIL program + result structure function.
///
/// Everything but the parameter values is shared: a plan-cache hit clones
/// the `Arc`s and re-binds `prog`, never copying a statement.
#[derive(Debug, Clone)]
pub struct Translated {
    /// The optimized program with this translation's parameter values.
    pub prog: BoundProgram,
    /// Variable of the result index BAT.
    pub index: Var,
    /// Structure function of the result elements.
    pub spec: Arc<StructSpec>,
    /// Variables the interpreter must keep alive for the structure.
    pub keep: Arc<[Var]>,
    /// False when a parameter value was folded into a derived constant at
    /// translation time (e.g. `?1 - 1day` between two constants): the
    /// program then has no slot for that parameter and must not be re-bound
    /// — plan caches bypass such plans.
    pub cacheable: bool,
}

impl Translated {
    /// Execute against a database and assemble the structured result.
    pub fn run(&self, ctx: &ExecCtx, db: &Db) -> Result<(StructuredSet, Env)> {
        let env = execute(ctx, db, &self.prog, &self.keep)?;
        let set = self.build(&env)?;
        Ok((set, env))
    }

    /// Assemble the structured result from an existing environment.
    pub fn build(&self, env: &Env) -> Result<StructuredSet> {
        Ok(StructuredSet::new(env.bat(self.index)?.clone(), self.spec.instantiate(env)?))
    }
}

/// Scalar translation result: a BAT variable or a constant. A constant
/// carries the parameter id it came from (if any), so the consuming
/// emission site can record a parameter slot on the statement.
enum SVal {
    Bat { var: Var, ref_class: Option<String> },
    Const(AtomValue, Option<u32>),
}

/// Translate a MOA set expression into a MIL program plus result structure
/// (the entry point of the rewriter) under the process environment's
/// configuration — [`translate_in`] with [`EngineConfig::from_env`].
pub fn translate(cat: &Catalog, expr: &SetExpr) -> Result<Translated> {
    translate_in(cat, expr, &EngineConfig::from_env())
}

/// Translate under `cfg`: the emitted program is handed to the MIL plan
/// optimizer unless `cfg.opt` is `Off`, which reproduces the raw emission
/// exactly. When a plan cache is installed on this thread
/// ([`crate::plancache::with_plan_cache`]), translation goes through it: a
/// cached plan of the same shape under the same [`PlanConfig`] is re-bound
/// to this expression's parameter values instead of being re-translated
/// and re-optimized.
pub fn translate_in(cat: &Catalog, expr: &SetExpr, cfg: &EngineConfig) -> Result<Translated> {
    let plan = cfg.plan();
    match crate::plancache::ambient_plan_cache() {
        Some(cache) => cache.translate(cat, expr, &plan),
        None => translate_uncached(cat, expr, &plan),
    }
}

/// Translate at an explicit optimization level, past any plan cache
/// (benchmarks and oracle tests pin `Off` to run the translator's raw
/// emission against the optimized plan). Everything else follows the
/// process environment's configuration.
pub fn translate_with(cat: &Catalog, expr: &SetExpr, level: OptLevel) -> Result<Translated> {
    translate_uncached(cat, expr, &PlanConfig { opt: level, ..EngineConfig::from_env().plan() })
}

/// The translator proper: rewrite, then optimize as `plan` says.
pub(crate) fn translate_uncached(
    cat: &Catalog,
    expr: &SetExpr,
    plan: &PlanConfig,
) -> Result<Translated> {
    let mut t =
        Translator { cat, prog: MilProgram::new(), loaded: HashMap::new(), param_folded: false };
    let ts = t.tset(expr)?;
    let mut spec = t.elem_spec(&ts.elem, ts.index)?;
    let mut keep = vec![ts.index];
    spec.vars(&mut keep);
    keep.sort_unstable();
    keep.dedup();
    let (mut prog, mut index) = (t.prog, ts.index);
    if plan.opt.enabled() {
        let mut opt = monet::mil::opt::optimize(prog, &keep, cat.db(), plan);
        prog = std::mem::take(&mut opt.prog);
        index = opt.var(index);
        spec.remap_vars(&|v| opt.var(v));
        for k in keep.iter_mut() {
            *k = opt.var(*k);
        }
        keep.sort_unstable();
        keep.dedup();
    }
    Ok(Translated {
        prog: BoundProgram::new(prog),
        index,
        spec: Arc::new(spec),
        keep: keep.into(),
        cacheable: !t.param_folded,
    })
}

struct Translator<'a> {
    cat: &'a Catalog,
    prog: MilProgram,
    loaded: HashMap<String, Var>,
    /// Set when constant folding at translation time consumed a
    /// parameter-tainted constant (the emitted program then has no slot
    /// for that parameter); makes the plan non-cacheable.
    param_folded: bool,
}

impl<'a> Translator<'a> {
    fn load(&mut self, name: &str) -> Result<Var> {
        if let Some(v) = self.loaded.get(name) {
            return Ok(*v);
        }
        // Validate at translation time so errors carry the BAT name.
        let _: &Bat =
            self.cat.db().get(name).map_err(|_| MoaError::MissingBat(name.to_string()))?;
        let v = self.prog.emit(name, MilOp::Load(name.to_string()));
        self.loaded.insert(name.to_string(), v);
        Ok(v)
    }

    fn emit(&mut self, name: &str, op: MilOp) -> Var {
        self.prog.emit(name, op)
    }

    // -- set expressions ---------------------------------------------------

    fn tset(&mut self, e: &SetExpr) -> Result<TransSet> {
        match e {
            SetExpr::Extent(class) => {
                self.cat.schema().class(class)?;
                let index = self.load(&Catalog::extent_name(class))?;
                Ok(TransSet { index, elem: ElemInfo::Obj(class.clone()) })
            }
            SetExpr::Select { input, pred } => {
                // A select over a join that equates a left field with a
                // right field is a join on both keys; the other conjuncts
                // select over its result.
                if let SetExpr::JoinEq { left, right, lkey, rkey, lname, rname } = &**input {
                    let mut conj = Vec::new();
                    flatten_and(pred, &mut conj);
                    let names = (lname.as_str(), rname.as_str());
                    if let Some((k, key2)) =
                        conj.iter().enumerate().find_map(|(k, c)| Some((k, second_key(c, names)?)))
                    {
                        let ts = self.join_eq(left, right, (lkey, rkey), names, Some(key2))?;
                        let mut rest: Vec<Pred> = conj.into_iter().cloned().collect();
                        rest.remove(k);
                        return if rest.is_empty() {
                            Ok(ts)
                        } else {
                            self.select_over(ts, &and_all(rest), None)
                        };
                    }
                }
                let ts = self.tset(input)?;
                self.select_over(ts, pred, None)
            }
            SetExpr::Project { input, items } => {
                let ts = self.tset(input)?;
                let mut fields = Vec::with_capacity(items.len());
                for item in items {
                    let fi = match &item.expr {
                        Expr::Scalar(s) => match self.scalar(&ts, s, Some(ts.index))? {
                            SVal::Bat { var, ref_class: Some(c) } => {
                                FieldInfo::RefTo { bat: var, class: c, scope: Some(ts.index) }
                            }
                            SVal::Bat { var, ref_class: None } => {
                                FieldInfo::Scalar { bat: var, scope: Some(ts.index) }
                            }
                            SVal::Const(..) => {
                                return Err(MoaError::Type(
                                    "projection of a bare constant is not supported; \
                                         fold it into an expression over an attribute"
                                        .into(),
                                ))
                            }
                        },
                        Expr::SetV(sv) => {
                            let (idx, celem) = self.setvalued(&ts, sv)?;
                            FieldInfo::Nested { index: idx, elem: Box::new(celem) }
                        }
                    };
                    fields.push((item.name.clone(), fi));
                }
                Ok(TransSet { index: ts.index, elem: ElemInfo::Tup(fields) })
            }
            SetExpr::Nest { input, keys } => {
                let ts = self.tset(input)?;
                // Key BATs, restricted to the selected elements.
                let mut kvars = Vec::with_capacity(keys.len());
                for k in keys {
                    let s = match &k.expr {
                        Expr::Scalar(s) => s,
                        Expr::SetV(_) => {
                            return Err(MoaError::Type("nest keys must be scalar".into()))
                        }
                    };
                    match self.scalar(&ts, s, Some(ts.index))? {
                        SVal::Bat { var, ref_class } => kvars.push((var, ref_class)),
                        SVal::Const(..) => {
                            return Err(MoaError::Type(
                                "nest key must depend on the element".into(),
                            ))
                        }
                    }
                }
                // class := group(k1); class := group(class, ki)…  (Fig 10 l.7)
                // Each `group` memoizes the grouping its tail is, and the
                // keys it determines, for the statements below.
                let mut class = self.emit("class", MilOp::Group1(kvars[0].0));
                for (kv, _) in kvars.iter().skip(1) {
                    class = self.emit("class", MilOp::Group2(class, *kv));
                }
                // One element per group: INDEX (Fig 10 l.8), a `{count}`
                // over the memoized grouping.
                let cm = self.emit("", MilOp::Mirror(class));
                let index = self.emit("INDEX", MilOp::SetAgg { f: AggFunc::Count, src: cm });
                // Key fields: KEY := join(class.mirror, k).unique (l.9); the
                // kernel gathers the key at the groups' first rows.
                let mut fields: Vec<(String, FieldInfo)> = Vec::new();
                for (k, (kv, ref_class)) in keys.iter().zip(&kvars) {
                    let j = self.emit("", MilOp::Join(cm, *kv));
                    let u = self.emit(&k.name.to_uppercase(), MilOp::Unique(j));
                    fields.push((
                        k.name.clone(),
                        match ref_class {
                            Some(c) => {
                                FieldInfo::RefTo { bat: u, class: c.clone(), scope: Some(index) }
                            }
                            None => FieldInfo::Scalar { bat: u, scope: Some(index) },
                        },
                    ));
                }
                // The grouped elements: class is exactly the nested index
                // [child_elem, group_oid].
                fields.push((
                    NEST_REST.to_string(),
                    FieldInfo::Nested { index: class, elem: Box::new(ts.elem) },
                ));
                Ok(TransSet { index, elem: ElemInfo::Tup(fields) })
            }
            SetExpr::Union(a, b) => {
                let (ta, tb) = (self.tset(a)?, self.tset(b)?);
                match (&ta.elem, &tb.elem) {
                    (ElemInfo::Obj(ca), ElemInfo::Obj(cb)) if ca == cb => {}
                    _ => {
                        return Err(MoaError::Type(
                            "union is supported on object sets of the same class".into(),
                        ))
                    }
                }
                let fresh = self.emit("", MilOp::Antijoin(tb.index, ta.index));
                let index = self.emit("united", MilOp::Concat(ta.index, fresh));
                Ok(TransSet { index, elem: ta.elem })
            }
            SetExpr::Diff(a, b) => {
                let (ta, tb) = (self.tset(a)?, self.tset(b)?);
                let index = self.emit("diffed", MilOp::Antijoin(ta.index, tb.index));
                Ok(TransSet { index, elem: ta.elem })
            }
            SetExpr::Intersect(a, b) => {
                let (ta, tb) = (self.tset(a)?, self.tset(b)?);
                let index = self.emit("intersected", MilOp::Semijoin(ta.index, tb.index));
                Ok(TransSet { index, elem: ta.elem })
            }
            SetExpr::Top { input, by, n, desc } => {
                let ts = self.tset(input)?;
                let k = match self.scalar(&ts, by, Some(ts.index))? {
                    SVal::Bat { var, .. } => var,
                    SVal::Const(..) => {
                        return Err(MoaError::Type("top key must depend on the element".into()))
                    }
                };
                let t = self.emit("topk", MilOp::TopN { src: k, n: *n, desc: *desc });
                let index = self.emit("topped", MilOp::Semijoin(ts.index, t));
                Ok(TransSet { index, elem: ts.elem })
            }
            SetExpr::JoinEq { left, right, lkey, rkey, lname, rname } => {
                self.join_eq(left, right, (lkey, rkey), (lname, rname), None)
            }
            SetExpr::SemijoinEq { left, right, lkey, rkey } => {
                let tl = self.tset(left)?;
                let tr = match self.right_over_partners(&tl, left, right, (lkey, rkey))? {
                    Some(tr) => tr,
                    None => self.tset(right)?,
                };
                let lk = self.scalar_bat(&tl, lkey)?;
                let rk = self.scalar_bat(&tr, rkey)?;
                let lkm = self.emit("", MilOp::Mirror(lk));
                let rkm = self.emit("", MilOp::Mirror(rk));
                let q = self.emit("", MilOp::Semijoin(lkm, rkm));
                let qm = self.emit("", MilOp::Mirror(q));
                let index = self.emit("semijoined", MilOp::Semijoin(tl.index, qm));
                Ok(TransSet { index, elem: tl.elem })
            }
            SetExpr::Unnest { input, attr, oname, mname } => {
                let ts = self.tset(input)?;
                let (idx, celem) = self.setvalued(&ts, attr)?;
                // idx = [child, owner]; child ids are unique, so they
                // become the element ids of the unnested set.
                let ofield = self.rekey_elem(&ts.elem, idx)?;
                let mfield = self.elem_as_field(&celem, idx)?;
                Ok(TransSet {
                    index: idx,
                    elem: ElemInfo::Tup(vec![(oname.clone(), ofield), (mname.clone(), mfield)]),
                })
            }
        }
    }

    /// The selection rule, `SET(semijoin(A, T(f(X))), X)`; `cand`, when
    /// given, is a subset of `A` the qualifier is evaluated over.
    fn select_over(&mut self, ts: TransSet, pred: &Pred, cand: Option<Var>) -> Result<TransSet> {
        let q = self.quals(&ts, pred, cand)?;
        let index = self.emit("selected", MilOp::Semijoin(ts.index, q));
        // A restriction commutes with a projection: later gathers read the
        // survivors' fields only.
        let elem = match ts.elem {
            ElemInfo::Tup(fields) => ElemInfo::Tup(self.rescope(&fields, ts.index, index)),
            elem => elem,
        };
        Ok(TransSet { index, elem })
    }

    /// The semijoin reduction `L ⋉ σp(R) = L ⋉ σp(R ⋉ L)`, for
    /// `semijoin_eq(left, select[p](R), this, f)` with `f` a reference of
    /// `R` to the left's class and a left that is a selection, not the
    /// whole extent: `R` is restricted to the left's partners first — the
    /// `R` whose `f` is a left element, the owner restriction of a nested
    /// set — and `p` is evaluated over them only. `None` for any other
    /// shape.
    fn right_over_partners(
        &mut self,
        tl: &TransSet,
        left: &SetExpr,
        right: &SetExpr,
        (lkey, rkey): (&Scalar, &Scalar),
    ) -> Result<Option<TransSet>> {
        let ElemInfo::Obj(lclass) = &tl.elem else { return Ok(None) };
        let SetExpr::Select { input, pred } = right else { return Ok(None) };
        let (SetExpr::Extent(rclass), Scalar::This, Scalar::Attr(path)) = (&**input, lkey, rkey)
        else {
            return Ok(None);
        };
        let [f] = path.as_slice() else { return Ok(None) };
        let refs_left = matches!(
            self.cat.schema().class(rclass)?.field(f).map(|fd| &fd.ty),
            Some(MoaType::Object(c)) if c == lclass
        );
        if !refs_left || matches!(left, SetExpr::Extent(_)) {
            return Ok(None);
        }
        let rf = self.load(&Catalog::attr_name(rclass, f))?;
        let partners = self.tails_in("partners", rf, tl.index);
        let extent = TransSet {
            index: self.load(&Catalog::extent_name(rclass))?,
            elem: ElemInfo::Obj(rclass.clone()),
        };
        self.select_over(extent, pred, Some(partners)).map(Some)
    }

    /// `join_eq(L, R, lk, rk)` as the pairs `[l, r]` of one `join` on the
    /// keys, numbered by `mark`: `lmap`/`rmap` map a pair to its sides, and
    /// every field of a side is re-keyed through its map. With `key2 =
    /// (f, g)`, the pairs are those of the select `l.f = r.g` over the
    /// join, found by one two-key `join` on `(lk, f) = (rk, g)`, so no
    /// pair the select drops is numbered or gathered.
    fn join_eq(
        &mut self,
        left: &SetExpr,
        right: &SetExpr,
        (lkey, rkey): (&Scalar, &Scalar),
        (lname, rname): (&str, &str),
        key2: Option<(&[String], &[String])>,
    ) -> Result<TransSet> {
        let tl = self.tset(left)?;
        let tr = self.tset(right)?;
        let lk = self.scalar_bat(&tl, lkey)?;
        let rk = self.scalar_bat(&tr, rkey)?;
        let rkm = self.emit("", MilOp::Mirror(rk));
        let pairs = match key2 {
            None => self.emit("pairs", MilOp::Join(lk, rkm)),
            Some((f, g)) => {
                let lf = self.scalar_bat(&tl, &Scalar::Attr(f.to_vec()))?;
                let rg = self.scalar_bat(&tr, &Scalar::Attr(g.to_vec()))?;
                self.emit("pairs", MilOp::Join2(lk, rkm, lf, rg))
            }
        };
        let pm = self.emit("", MilOp::Mark(pairs));
        let lmap = self.emit("lmap", MilOp::Mirror(pm));
        let rmap = self.emit("rmap", MilOp::Zip(pm, pairs));
        let lfield = self.rekey_elem(&tl.elem, lmap)?;
        let rfield = self.rekey_elem(&tr.elem, rmap)?;
        Ok(TransSet {
            index: lmap,
            elem: ElemInfo::Tup(vec![(lname.into(), lfield), (rname.into(), rfield)]),
        })
    }

    // -- predicates ---------------------------------------------------------

    /// Translate a predicate over the elements of `ts` into a qualifier BAT
    /// `[elem_id, _]` (the `T(f(X))` of the selection rule). `cand`
    /// restricts evaluation to a previous qualifier (conjunct chaining).
    fn quals(&mut self, ts: &TransSet, pred: &Pred, cand: Option<Var>) -> Result<Var> {
        match pred {
            Pred::And(..) => {
                let mut conj = Vec::new();
                flatten_and(pred, &mut conj);
                let groups = match &ts.elem {
                    ElemInfo::Obj(class) => self.prefix_groups(class, &conj)?,
                    _ => Vec::new(),
                };
                let mut cand = cand;
                for (i, c) in conj.iter().enumerate() {
                    cand = Some(match groups.iter().find(|g| g.members.contains(&i)) {
                        Some(g) if g.members[0] != i => continue,
                        Some(g) => self.group_quals(g, &conj, cand)?,
                        None => self.quals(ts, c, cand)?,
                    });
                }
                Ok(cand.expect("a conjunction has two conjuncts"))
            }
            Pred::Or(a, b) => {
                // The selection rule once more: the index restricted to the
                // union of the two pullbacks, in index order.
                let qa = self.quals(ts, a, cand)?;
                let qb = self.quals(ts, b, cand)?;
                let ua = self.emit("", MilOp::Semijoin(ts.index, qa));
                let ub = self.emit("", MilOp::Semijoin(ts.index, qb));
                let either = self.emit("", MilOp::Concat(ua, ub));
                Ok(self.emit("", MilOp::Semijoin(ts.index, either)))
            }
            Pred::Not(p) => {
                let q = self.quals(ts, p, None)?;
                let base = cand.unwrap_or(ts.index);
                Ok(self.emit("", MilOp::Antijoin(base, q)))
            }
            Pred::Cmp(op, l, r) => self.cmp_quals(ts, *op, l, r, cand),
        }
    }

    /// The conjuncts of `conj` that push down through the same reference
    /// attribute of `class`, for every reference shared by two or more.
    fn prefix_groups(&self, class: &str, conj: &[&Pred]) -> Result<Vec<PrefixGroup>> {
        let def = self.cat.schema().class(class)?;
        let mut groups: Vec<PrefixGroup> = Vec::new();
        for (i, c) in conj.iter().enumerate() {
            let Some(seg) = pushdown_prefix(c) else { continue };
            let Some(MoaType::Object(target)) = def.field(seg).map(|f| &f.ty) else { continue };
            let hop = Catalog::attr_name(class, seg);
            match groups.iter_mut().find(|g| g.hop == hop) {
                Some(g) => g.members.push(i),
                None => groups.push(PrefixGroup { hop, target: target.clone(), members: vec![i] }),
            }
        }
        groups.retain(|g| g.members.len() > 1);
        Ok(groups)
    }

    /// Evaluate a group's conjuncts once, prefix stripped, over the extent
    /// of the referenced class, and join the survivors back along the
    /// reference: the intersection of pullbacks along a function is the
    /// pullback of the intersection, so one `join(hop, q)` replaces one per
    /// conjunct and the intersection runs over the smaller class.
    fn group_quals(&mut self, g: &PrefixGroup, conj: &[&Pred], cand: Option<Var>) -> Result<Var> {
        let hop = self.load(&g.hop)?;
        let target = TransSet {
            index: self.load(&Catalog::extent_name(&g.target))?,
            elem: ElemInfo::Obj(g.target.clone()),
        };
        let stripped = and_all(g.members.iter().map(|&i| strip_prefix(conj[i])).collect());
        let at_target = self.quals(&target, &stripped, None)?;
        let back = self.emit("", MilOp::Join(hop, at_target));
        Ok(match cand {
            Some(c) => self.emit("", MilOp::Semijoin(back, c)),
            None => back,
        })
    }

    fn cmp_quals(
        &mut self,
        ts: &TransSet,
        op: ScalarFunc,
        l: &Scalar,
        r: &Scalar,
        cand: Option<Var>,
    ) -> Result<Var> {
        // Normalize literal-on-the-left comparisons (parameters are
        // literals that remember their id).
        if is_const_scalar(l) && !is_const_scalar(r) {
            if let Some(flipped) = flip_cmp(op) {
                return self.cmp_quals(ts, flipped, r, l, cand);
            }
        }
        // Push-down path: attribute compared against a literal — tested at
        // the path's far end, then joined back along the reference chain
        // (Fig 10 lines 1-5).
        let r_const = match r {
            Scalar::Lit(v) => Some((v, None)),
            Scalar::Param { id, value } => Some((value, Some(*id))),
            _ => None,
        };
        if let (Scalar::Attr(path), Some((v, pid))) = (l, r_const) {
            if let Some(q) = self.pushdown_select(ts, path, op, v, pid, cand)? {
                return Ok(q);
            }
        }
        // General fallback: multiplex the comparison to [elem, bool] and
        // select the trues. Tuple-element value BATs ignore the `restrict`
        // hint (they are keyed by construction), so the candidate
        // restriction must be re-applied to the qualifier explicitly.
        let base = cand.unwrap_or(ts.index);
        let lb = self.scalar(ts, l, Some(base))?;
        let rb = self.scalar(ts, r, Some(base))?;
        let bools = self.emit_multiplex(op, vec![lb, rb]);
        let q = self.emit("", MilOp::SelectEq(bools, AtomValue::Bool(true)));
        Ok(match cand {
            Some(c) => self.emit("", MilOp::Semijoin(q, c)),
            None => q,
        })
    }

    /// Try the select-pushdown strategy for `path op literal`. Returns
    /// `None` when the path shape does not support it.
    ///
    /// An order predicate is a (range-)select on the attribute BAT, so it
    /// always pushes down. Any other comparison is a `[op]` multiplex and a
    /// `select(·, true)`: at the far end of a reference path this is the
    /// predicate's pullback along the hops, tested once per referenced
    /// object instead of once per element. Over the candidates of an
    /// earlier conjunct, or on the element's own attribute, gathering is
    /// the smaller job, and the general fallback does it.
    fn pushdown_select(
        &mut self,
        ts: &TransSet,
        path: &[String],
        op: ScalarFunc,
        v: &AtomValue,
        pid: Option<u32>,
        cand: Option<Var>,
    ) -> Result<Option<Var>> {
        let order = is_select_op(op);
        if !order && (cand.is_some() || path.len() < 2) {
            return Ok(None);
        }
        // Resolve the chain of hop BATs: hops[0..n-1] are reference BATs
        // [cur, next], the final BAT holds the compared values.
        let Some((hops, leaf)) = self.attr_hop_bats(&ts.elem, path)? else {
            return Ok(None);
        };
        if !order && hops.is_empty() {
            return Ok(None);
        }
        let selected = if hops.is_empty() {
            // Single hop: restrict first (datavector semijoin), then select
            // — exactly Figure 10 lines 3-4.
            let base = match cand {
                Some(c) => self.emit("", MilOp::Semijoin(leaf, c)),
                None => leaf,
            };
            self.emit_select("", base, op, v, pid)
        } else {
            // Test at the far end, then walk the reference chain back.
            let mut cur = if order {
                self.emit_select("", leaf, op, v, pid)
            } else {
                let bools = self.emit_multiplex(
                    op,
                    vec![SVal::Bat { var: leaf, ref_class: None }, SVal::Const(v.clone(), pid)],
                );
                self.emit("", MilOp::SelectEq(bools, AtomValue::Bool(true)))
            };
            for hop in hops.iter().rev() {
                cur = self.emit("", MilOp::Join(*hop, cur));
            }
            match cand {
                Some(c) => self.emit("", MilOp::Semijoin(cur, c)),
                None => cur,
            }
        };
        Ok(Some(selected))
    }

    fn emit_select(
        &mut self,
        name: &str,
        src: Var,
        op: ScalarFunc,
        v: &AtomValue,
        pid: Option<u32>,
    ) -> Var {
        let (op, loc) = match op {
            ScalarFunc::Eq => (MilOp::SelectEq(src, v.clone()), ParamLoc::EqVal),
            ScalarFunc::Lt => (
                MilOp::SelectRange {
                    src,
                    lo: None,
                    hi: Some(v.clone()),
                    inc_lo: true,
                    inc_hi: false,
                },
                ParamLoc::RangeHi,
            ),
            ScalarFunc::Le => (
                MilOp::SelectRange {
                    src,
                    lo: None,
                    hi: Some(v.clone()),
                    inc_lo: true,
                    inc_hi: true,
                },
                ParamLoc::RangeHi,
            ),
            ScalarFunc::Gt => (
                MilOp::SelectRange {
                    src,
                    lo: Some(v.clone()),
                    hi: None,
                    inc_lo: false,
                    inc_hi: true,
                },
                ParamLoc::RangeLo,
            ),
            ScalarFunc::Ge => (
                MilOp::SelectRange {
                    src,
                    lo: Some(v.clone()),
                    hi: None,
                    inc_lo: true,
                    inc_hi: true,
                },
                ParamLoc::RangeLo,
            ),
            other => unreachable!("emit_select on non-order op {other:?}"),
        };
        let var = self.emit(name, op);
        if let Some(id) = pid {
            self.prog.note_param(var, id, loc);
        }
        var
    }

    /// Emit a multiplexed scalar function, recording a parameter slot for
    /// every argument whose constant came from a query parameter.
    fn emit_multiplex(&mut self, f: ScalarFunc, vals: Vec<SVal>) -> Var {
        let mut slots: Vec<(u32, ParamLoc)> = Vec::new();
        let args: Vec<MilArg> = vals
            .into_iter()
            .enumerate()
            .map(|(i, v)| match v {
                SVal::Bat { var, .. } => MilArg::Var(var),
                SVal::Const(c, pid) => {
                    if let Some(id) = pid {
                        slots.push((id, ParamLoc::Arg(i as u32)));
                    }
                    MilArg::Const(c)
                }
            })
            .collect();
        let var = self.emit("", MilOp::Multiplex { f, args });
        for (id, loc) in slots {
            self.prog.note_param(var, id, loc);
        }
        var
    }

    /// The hop/leaf BATs of an attribute path, without restriction — the
    /// raw material for select pushdown. `None` if the path enters
    /// computed fields that have no backing chain.
    fn attr_hop_bats(
        &mut self,
        elem: &ElemInfo,
        path: &[String],
    ) -> Result<Option<(Vec<Var>, Var)>> {
        let mut hops: Vec<Var> = Vec::new();
        let mut cursor: ElemCursor = ElemCursor::Elem(elem.clone());
        for (i, seg) in path.iter().enumerate() {
            let last = i + 1 == path.len();
            match cursor {
                ElemCursor::Elem(ElemInfo::Obj(ref class)) => {
                    let def = self.cat.schema().class(class)?;
                    let field = def.field(seg).ok_or_else(|| MoaError::UnknownAttr {
                        class: class.clone(),
                        attr: seg.clone(),
                    })?;
                    let bat = self.load(&Catalog::attr_name(class, seg))?;
                    match &field.ty {
                        MoaType::Base(_) if last => return Ok(Some((hops, bat))),
                        MoaType::Base(_) => return Ok(None),
                        MoaType::Object(c2) if last => return Ok(Some((hops, bat))),
                        MoaType::Object(c2) => {
                            hops.push(bat);
                            cursor = ElemCursor::Elem(ElemInfo::Obj(c2.clone()));
                        }
                        _ => return Ok(None),
                    }
                }
                ElemCursor::Elem(ElemInfo::Tup(ref fields)) => {
                    let Some((_, fi)) = fields.iter().find(|(n, _)| n == seg) else {
                        return Err(MoaError::Type(format!("tuple has no field {seg}")));
                    };
                    match fi {
                        FieldInfo::Scalar { bat, .. } if last => return Ok(Some((hops, *bat))),
                        FieldInfo::RefTo { bat, class, .. } => {
                            if last {
                                return Ok(Some((hops, *bat)));
                            }
                            hops.push(*bat);
                            cursor = ElemCursor::Elem(ElemInfo::Obj(class.clone()));
                        }
                        FieldInfo::TupF(inner) => {
                            cursor = ElemCursor::Elem(ElemInfo::Tup(inner.clone()));
                        }
                        _ => return Ok(None),
                    }
                }
                ElemCursor::Elem(ElemInfo::Atom { .. }) => return Ok(None),
            }
        }
        Ok(None)
    }

    // -- scalar expressions --------------------------------------------------

    fn scalar_bat(&mut self, ts: &TransSet, s: &Scalar) -> Result<Var> {
        match self.scalar(ts, s, Some(ts.index))? {
            SVal::Bat { var, .. } => Ok(var),
            SVal::Const(..) => Err(MoaError::Type(
                "expected an element-dependent expression, found a constant".into(),
            )),
        }
    }

    /// Translate a scalar expression to `[elem_id, value]` (or a constant).
    /// `restrict` semijoins first-hop attribute BATs down to the given
    /// index — the "computation phase" behaviour that engages the
    /// datavector semijoin.
    fn scalar(&mut self, ts: &TransSet, s: &Scalar, restrict: Option<Var>) -> Result<SVal> {
        match s {
            Scalar::Lit(v) => Ok(SVal::Const(v.clone(), None)),
            Scalar::Param { id, value } => Ok(SVal::Const(value.clone(), Some(*id))),
            Scalar::This => match &ts.elem {
                ElemInfo::Obj(c) => {
                    let class = c.clone();
                    let mut v = self.self_map(ts.index)?;
                    if let Some(r) = restrict {
                        if r != ts.index {
                            v = self.emit("", MilOp::Semijoin(v, r));
                        }
                    }
                    Ok(SVal::Bat { var: v, ref_class: Some(class) })
                }
                ElemInfo::Atom { bat, ref_class } => {
                    let mut v = *bat;
                    if let Some(r) = restrict {
                        v = self.emit("", MilOp::Semijoin(v, r));
                    }
                    Ok(SVal::Bat { var: v, ref_class: ref_class.clone() })
                }
                ElemInfo::Tup(_) => {
                    Err(MoaError::Type("%self of a tuple element is not scalar".into()))
                }
            },
            Scalar::Attr(path) => self.attr_value(ts, &ts.elem.clone(), path, restrict),
            Scalar::Bin(op, l, r) => {
                let lv = self.scalar(ts, l, restrict)?;
                let rv = self.scalar(ts, r, restrict)?;
                match (&lv, &rv) {
                    (SVal::Const(a, lp), SVal::Const(b, rp)) => {
                        // Folding a parameter into a derived constant loses
                        // its slot; the plan still runs correctly but can
                        // no longer be re-bound, so mark it non-cacheable.
                        if lp.is_some() || rp.is_some() {
                            self.param_folded = true;
                        }
                        Ok(SVal::Const(
                            monet::ops::apply_scalar(*op, &[a.clone(), b.clone()])?,
                            None,
                        ))
                    }
                    _ => {
                        let v = self.emit_multiplex(*op, vec![lv, rv]);
                        Ok(SVal::Bat { var: v, ref_class: None })
                    }
                }
            }
            Scalar::Un(op, x) => {
                let xv = self.scalar(ts, x, restrict)?;
                match &xv {
                    SVal::Const(a, pid) => {
                        if pid.is_some() {
                            self.param_folded = true;
                        }
                        Ok(SVal::Const(monet::ops::apply_scalar(*op, &[a.clone()])?, None))
                    }
                    _ => {
                        let v = self.emit_multiplex(*op, vec![xv]);
                        Ok(SVal::Bat { var: v, ref_class: None })
                    }
                }
            }
            Scalar::Agg(f, sv) => {
                let (idx, celem) = self.setvalued(ts, sv)?;
                let im = self.emit("", MilOp::Mirror(idx));
                let v = match *f {
                    AggFunc::Count => self.emit("", MilOp::SetAgg { f: AggFunc::Count, src: im }),
                    _ => {
                        let vals = match &celem {
                            ElemInfo::Atom { bat, .. } => *bat,
                            ElemInfo::Obj(_) | ElemInfo::Tup(_) => {
                                return Err(MoaError::Type(format!(
                                    "aggregate {} needs atomic members; project first",
                                    f.name()
                                )))
                            }
                        };
                        // losses := join(class.mirror, values); {f}(losses)
                        let owner_vals = self.emit("", MilOp::Join(im, vals));
                        if *f == AggFunc::Avg && self.tail_is_dbl(vals) {
                            // avg is the (sum, count) module's quotient: both
                            // are statements CSE can share with the plan's
                            // own {sum} and INDEX (every member has one value,
                            // so the counts agree). On `dbl` the bits are
                            // `{avg}`'s: the same partials, divided by the
                            // count as `dbl`. Integer `{avg}`s sum in `dbl`
                            // and stay.
                            let sum =
                                self.emit("", MilOp::SetAgg { f: AggFunc::Sum, src: owner_vals });
                            let count = self.emit("", MilOp::SetAgg { f: AggFunc::Count, src: im });
                            let args = vec![MilArg::Var(sum), MilArg::Var(count)];
                            self.emit("", MilOp::Multiplex { f: ScalarFunc::Div, args })
                        } else {
                            self.emit("", MilOp::SetAgg { f: *f, src: owner_vals })
                        }
                    }
                };
                Ok(SVal::Bat { var: v, ref_class: None })
            }
        }
    }

    /// Whether `v`'s tail is `dbl` under every binding: followed through
    /// the operators that pass a tail on to the catalog BAT it comes from,
    /// or to an arithmetic multiplex with a `dbl` argument (which promotes).
    /// `false` when it cannot tell.
    fn tail_is_dbl(&self, v: Var) -> bool {
        match &self.prog.stmts[v].op {
            MilOp::Load(name) => {
                self.cat.db().get(name).is_ok_and(|b| b.tail().atom_type() == AtomType::Dbl)
            }
            MilOp::Semijoin(a, _)
            | MilOp::Antijoin(a, _)
            | MilOp::Join(_, a)
            | MilOp::SelectEq(a, _)
            | MilOp::SelectRange { src: a, .. } => self.tail_is_dbl(*a),
            MilOp::Multiplex {
                f: ScalarFunc::Add | ScalarFunc::Sub | ScalarFunc::Mul | ScalarFunc::Div,
                args,
            } => args.iter().any(|a| match a {
                MilArg::Var(x) => self.tail_is_dbl(*x),
                MilArg::Const(c) => c.atom_type() == AtomType::Dbl,
            }),
            _ => false,
        }
    }

    /// Attribute/navigation translation.
    fn attr_value(
        &mut self,
        ts: &TransSet,
        elem: &ElemInfo,
        path: &[String],
        restrict: Option<Var>,
    ) -> Result<SVal> {
        if path.is_empty() {
            return Err(MoaError::Type("empty attribute path".into()));
        }
        let seg = &path[0];
        match elem {
            ElemInfo::Obj(class) => {
                let def = self.cat.schema().class(class)?;
                let field = def
                    .field(seg)
                    .ok_or_else(|| MoaError::UnknownAttr {
                        class: class.clone(),
                        attr: seg.clone(),
                    })?
                    .clone();
                let mut cur = self.load(&Catalog::attr_name(class, seg))?;
                if let Some(r) = restrict {
                    cur = self.emit("", MilOp::Semijoin(cur, r));
                }
                match field.ty {
                    MoaType::Base(_) => {
                        if path.len() > 1 {
                            return Err(MoaError::NotNavigable {
                                class: class.clone(),
                                attr: seg.clone(),
                            });
                        }
                        Ok(SVal::Bat { var: cur, ref_class: None })
                    }
                    MoaType::Object(c2) => self.chain_object(cur, &c2, &path[1..]),
                    MoaType::Set(_) => Err(MoaError::Type(format!(
                        "%{} is set-valued; use a set expression",
                        path.join(".")
                    ))),
                    MoaType::Tuple(_) => {
                        Err(MoaError::Type("direct tuple attributes are unsupported".into()))
                    }
                }
            }
            ElemInfo::Tup(fields) => {
                let Some((_, fi)) = fields.iter().find(|(n, _)| n == seg) else {
                    return Err(MoaError::Type(format!("tuple has no field {seg}")));
                };
                // Tuple field BATs may cover a superset of the current
                // elements (e.g. full member BATs after unnest); the
                // restriction must be applied to the resolved value.
                let field_scope;
                let v = match fi {
                    FieldInfo::Scalar { bat, scope } => {
                        if path.len() > 1 {
                            return Err(MoaError::Type(format!(
                                "cannot navigate past scalar field {seg}"
                            )));
                        }
                        field_scope = *scope;
                        SVal::Bat { var: *bat, ref_class: None }
                    }
                    FieldInfo::RefTo { bat, class, scope } => {
                        // Navigation joins preserve the key set, so the
                        // field's scope carries through the chain.
                        field_scope = *scope;
                        self.chain_object(*bat, &class.clone(), &path[1..])?
                    }
                    FieldInfo::TupF(inner) => {
                        return self.attr_value(
                            ts,
                            &ElemInfo::Tup(inner.clone()),
                            &path[1..],
                            restrict,
                        )
                    }
                    FieldInfo::Nested { .. } => {
                        return Err(MoaError::Type(format!(
                            "%{} is set-valued; use a set expression",
                            path.join(".")
                        )))
                    }
                };
                Ok(match (v, restrict) {
                    (SVal::Bat { var, ref_class }, Some(r)) if field_scope != Some(r) => {
                        SVal::Bat { var: self.emit("", MilOp::Semijoin(var, r)), ref_class }
                    }
                    (v, _) => v,
                })
            }
            ElemInfo::Atom { bat, ref_class } => {
                // Navigation from an atomic element only makes sense when
                // it is an object reference.
                let Some(class) = ref_class.clone() else {
                    return Err(MoaError::Type(format!(
                        "cannot navigate .{seg} from an atomic element"
                    )));
                };
                self.chain_object(*bat, &class, path)
            }
        }
    }

    /// Continue a navigation chain: `cur` is `[elem, oid-of-class]`, walk
    /// the remaining path by joining attribute BATs.
    fn chain_object(&mut self, cur: Var, class: &str, rest: &[String]) -> Result<SVal> {
        if rest.is_empty() {
            return Ok(SVal::Bat { var: cur, ref_class: Some(class.to_string()) });
        }
        let seg = &rest[0];
        let def = self.cat.schema().class(class)?;
        let field = def
            .field(seg)
            .ok_or_else(|| MoaError::UnknownAttr { class: class.into(), attr: seg.clone() })?
            .clone();
        let attr = self.load(&Catalog::attr_name(class, seg))?;
        let joined = self.emit("", MilOp::Join(cur, attr));
        match field.ty {
            MoaType::Base(_) => {
                if rest.len() > 1 {
                    return Err(MoaError::NotNavigable { class: class.into(), attr: seg.clone() });
                }
                Ok(SVal::Bat { var: joined, ref_class: None })
            }
            MoaType::Object(c2) => self.chain_object(joined, &c2, &rest[1..]),
            _ => Err(MoaError::Type(format!("cannot navigate through {class}.{seg}"))),
        }
    }

    // -- set-valued expressions ----------------------------------------------

    /// Translate a set-valued expression in the context of `ts` into
    /// `(index [child, elem], child ElemInfo)`.
    fn setvalued(&mut self, ts: &TransSet, sv: &SetValued) -> Result<(Var, ElemInfo)> {
        match sv {
            SetValued::Attr(path) => {
                if path.len() != 1 {
                    return Err(MoaError::Type(
                        "set-valued paths must be a single attribute".into(),
                    ));
                }
                let seg = &path[0];
                match &ts.elem {
                    ElemInfo::Obj(class) => {
                        let class = class.clone();
                        let def = self.cat.schema().class(&class)?;
                        let field = def
                            .field(seg)
                            .ok_or_else(|| MoaError::UnknownAttr {
                                class: class.clone(),
                                attr: seg.clone(),
                            })?
                            .clone();
                        let MoaType::Set(member_ty) = field.ty else {
                            return Err(MoaError::Type(format!("%{seg} is not set-valued")));
                        };
                        let full = self.load(&Catalog::attr_name(&class, seg))?;
                        // Restrict owners to the current elements.
                        let idx = self.tails_in("", full, ts.index);
                        let celem = self.member_elem(&class, seg, &member_ty)?;
                        Ok((idx, celem))
                    }
                    ElemInfo::Tup(fields) => {
                        let Some((_, fi)) = fields.iter().find(|(n, _)| n == seg) else {
                            return Err(MoaError::Type(format!("tuple has no field {seg}")));
                        };
                        match fi {
                            FieldInfo::Nested { index, elem } => {
                                let elem = (**elem).clone();
                                Ok((self.tails_in("", *index, ts.index), elem))
                            }
                            _ => Err(MoaError::Type(format!("field {seg} is not a set"))),
                        }
                    }
                    ElemInfo::Atom { .. } => {
                        Err(MoaError::Type("atomic elements have no set attributes".into()))
                    }
                }
            }
            SetValued::SelectIn(inner, pred) => {
                // §4.3.2: one flat selection over all nested sets at once.
                let (idx, celem) = self.setvalued(ts, inner)?;
                let child_ts = TransSet { index: idx, elem: celem.clone() };
                let q = self.quals(&child_ts, pred, None)?;
                let idx2 = self.emit("", MilOp::Semijoin(idx, q));
                Ok((idx2, celem))
            }
            SetValued::ProjectIn(inner, item) => {
                let (idx, celem) = self.setvalued(ts, inner)?;
                let child_ts = TransSet { index: idx, elem: celem };
                match self.scalar(&child_ts, item, Some(idx))? {
                    SVal::Bat { var, ref_class } => {
                        Ok((idx, ElemInfo::Atom { bat: var, ref_class }))
                    }
                    SVal::Const(..) => Err(MoaError::Type(
                        "projection inside a set must depend on the member".into(),
                    )),
                }
            }
        }
    }

    /// The rows of `bat` whose tail is a head of `index`, as
    /// `mirror(semijoin(mirror(bat), index))`: the members of a nested set
    /// whose owner is selected.
    fn tails_in(&mut self, name: &str, bat: Var, index: Var) -> Var {
        let m = self.emit("", MilOp::Mirror(bat));
        let ms = self.emit("", MilOp::Semijoin(m, index));
        self.emit(name, MilOp::Mirror(ms))
    }

    /// Child ElemInfo for a stored set-valued attribute.
    fn member_elem(&mut self, class: &str, attr: &str, ty: &MoaType) -> Result<ElemInfo> {
        Ok(match ty {
            MoaType::Tuple(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for f in fields {
                    let bat = self.load(&Catalog::member_name(class, attr, &f.name))?;
                    let fi = match &f.ty {
                        MoaType::Object(c) => {
                            FieldInfo::RefTo { bat, class: c.clone(), scope: None }
                        }
                        MoaType::Base(_) => FieldInfo::Scalar { bat, scope: None },
                        other => {
                            return Err(MoaError::Type(format!(
                                "unsupported member field type {other}"
                            )))
                        }
                    };
                    out.push((f.name.clone(), fi));
                }
                ElemInfo::Tup(out)
            }
            MoaType::Object(c) => ElemInfo::Atom {
                bat: self.load(&Catalog::member_name(class, attr, "ref"))?,
                ref_class: Some(c.clone()),
            },
            MoaType::Base(_) => ElemInfo::Atom {
                bat: self.load(&Catalog::member_name(class, attr, "val"))?,
                ref_class: None,
            },
            other => return Err(MoaError::Type(format!("unsupported member type {other}"))),
        })
    }

    // -- rekeying (joins, unnest) ---------------------------------------------

    /// Re-key an element description through `map = [new_id, old_id]`,
    /// emitting the joins that move every value BAT to the new ids.
    fn rekey_elem(&mut self, elem: &ElemInfo, map: Var) -> Result<FieldInfo> {
        Ok(match elem {
            ElemInfo::Obj(c) => FieldInfo::RefTo { bat: map, class: c.clone(), scope: Some(map) },
            ElemInfo::Atom { bat, ref_class } => {
                let j = self.emit("", MilOp::Join(map, *bat));
                match ref_class {
                    Some(c) => FieldInfo::RefTo { bat: j, class: c.clone(), scope: Some(map) },
                    None => FieldInfo::Scalar { bat: j, scope: Some(map) },
                }
            }
            ElemInfo::Tup(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (n, fi) in fields {
                    out.push((n.clone(), self.rekey_field(fi, map)?));
                }
                FieldInfo::TupF(out)
            }
        })
    }

    fn rekey_field(&mut self, fi: &FieldInfo, map: Var) -> Result<FieldInfo> {
        Ok(match fi {
            FieldInfo::Scalar { bat, .. } => {
                FieldInfo::Scalar { bat: self.emit("", MilOp::Join(map, *bat)), scope: Some(map) }
            }
            FieldInfo::RefTo { bat, class, .. } => FieldInfo::RefTo {
                bat: self.emit("", MilOp::Join(map, *bat)),
                class: class.clone(),
                scope: Some(map),
            },
            FieldInfo::Nested { index, elem } => {
                // [child, old] → [child, new]
                let im = self.emit("", MilOp::Mirror(*index));
                let j = self.emit("", MilOp::Join(map, im));
                let idx = self.emit("", MilOp::Mirror(j));
                FieldInfo::Nested { index: idx, elem: elem.clone() }
            }
            FieldInfo::TupF(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (n, f) in fields {
                    out.push((n.clone(), self.rekey_field(f, map)?));
                }
                FieldInfo::TupF(out)
            }
        })
    }

    /// Restrict tuple fields keyed by the heads of `index` to the heads of
    /// its subset `selected`: a field that *is* the index becomes
    /// `selected`, every other value BAT is semijoined with it. Nested sets
    /// keep their index; `setvalued` restricts them on use.
    fn rescope(
        &mut self,
        fields: &[(String, FieldInfo)],
        index: Var,
        selected: Var,
    ) -> Vec<(String, FieldInfo)> {
        let cut = |t: &mut Self, bat: Var| {
            if bat == index {
                selected
            } else {
                t.emit("", MilOp::Semijoin(bat, selected))
            }
        };
        fields
            .iter()
            .map(|(n, fi)| {
                let fi = match fi {
                    FieldInfo::Scalar { bat, .. } => {
                        FieldInfo::Scalar { bat: cut(self, *bat), scope: Some(selected) }
                    }
                    FieldInfo::RefTo { bat, class, .. } => FieldInfo::RefTo {
                        bat: cut(self, *bat),
                        class: class.clone(),
                        scope: Some(selected),
                    },
                    FieldInfo::TupF(inner) => FieldInfo::TupF(self.rescope(inner, index, selected)),
                    FieldInfo::Nested { .. } => fi.clone(),
                };
                (n.clone(), fi)
            })
            .collect()
    }

    /// Wrap a child ElemInfo (keyed by the heads of `idx`) as a tuple
    /// field of elements whose ids are exactly those heads.
    fn elem_as_field(&mut self, elem: &ElemInfo, idx: Var) -> Result<FieldInfo> {
        Ok(match elem {
            ElemInfo::Obj(c) => {
                let selfmap = self.self_map(idx)?;
                FieldInfo::RefTo { bat: selfmap, class: c.clone(), scope: Some(idx) }
            }
            ElemInfo::Atom { bat, ref_class } => match ref_class {
                Some(c) => FieldInfo::RefTo { bat: *bat, class: c.clone(), scope: None },
                None => FieldInfo::Scalar { bat: *bat, scope: None },
            },
            ElemInfo::Tup(fields) => FieldInfo::TupF(fields.clone()),
        })
    }

    /// `[elem, elem]` self-reference BAT for the heads of `idx`.
    fn self_map(&mut self, idx: Var) -> Result<Var> {
        let m = self.emit("", MilOp::Mirror(idx));
        Ok(self.emit("", MilOp::Zip(m, m)))
    }

    // -- result structure -----------------------------------------------------

    /// Build the result structure specification for the final element
    /// description (emits self-maps for object elements).
    fn elem_spec(&mut self, elem: &ElemInfo, index: Var) -> Result<StructSpec> {
        Ok(match elem {
            ElemInfo::Obj(c) => StructSpec::Ref { bat: self.self_map(index)?, class: c.clone() },
            ElemInfo::Atom { bat, ref_class } => match ref_class {
                Some(c) => StructSpec::Ref { bat: *bat, class: c.clone() },
                None => StructSpec::Atom(*bat),
            },
            ElemInfo::Tup(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (n, fi) in fields {
                    out.push((n.clone(), self.field_spec(fi)?));
                }
                StructSpec::Tuple(out)
            }
        })
    }

    fn field_spec(&mut self, fi: &FieldInfo) -> Result<StructSpec> {
        Ok(match fi {
            FieldInfo::Scalar { bat, .. } => StructSpec::Atom(*bat),
            FieldInfo::RefTo { bat, class, .. } => {
                StructSpec::Ref { bat: *bat, class: class.clone() }
            }
            FieldInfo::Nested { index, elem } => {
                let inner = self.elem_spec(elem, *index)?;
                StructSpec::Set { index: *index, inner: Box::new(inner) }
            }
            FieldInfo::TupF(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (n, f) in fields {
                    out.push((n.clone(), self.field_spec(f)?));
                }
                StructSpec::Tuple(out)
            }
        })
    }
}

enum ElemCursor {
    Elem(ElemInfo),
}

/// Conjuncts of one selection over objects that navigate through the same
/// reference attribute first (`order` of `order.orderdate`).
struct PrefixGroup {
    /// The reference attribute's BAT `[elem, target_oid]`.
    hop: String,
    /// The class it references.
    target: String,
    /// Positions in the flattened conjunction, ascending.
    members: Vec<usize>,
}

/// The conjuncts of a conjunction, left to right.
fn flatten_and<'p>(p: &'p Pred, out: &mut Vec<&'p Pred>) {
    match p {
        Pred::And(a, b) => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        p => out.push(p),
    }
}

/// The first segment of a multi-segment path compared with a constant by
/// an order predicate, in either operand order — the conjuncts
/// `Translator::cmp_quals` hands to `pushdown_select`.
fn pushdown_prefix(p: &Pred) -> Option<&str> {
    let Pred::Cmp(op, l, r) = p else { return None };
    if !is_select_op(*op) {
        return None;
    }
    match (l, r) {
        (Scalar::Attr(path), c) | (c, Scalar::Attr(path))
            if path.len() > 1 && is_const_scalar(c) =>
        {
            Some(&path[0])
        }
        _ => None,
    }
}

/// A [`pushdown_prefix`] conjunct with its path's first segment removed.
fn strip_prefix(p: &Pred) -> Pred {
    let strip = |s: &Scalar| match s {
        Scalar::Attr(path) => Scalar::Attr(path[1..].to_vec()),
        s => s.clone(),
    };
    match p {
        Pred::Cmp(op, l, r) => Pred::Cmp(*op, strip(l), strip(r)),
        _ => unreachable!("only comparisons are grouped"),
    }
}

/// `l.f = r.g` over the pairs of a join whose sides are named `names`: the
/// paths `(f, g)` of a left and a right field, in that order.
fn second_key<'p>(
    p: &'p Pred,
    (lname, rname): (&str, &str),
) -> Option<(&'p [String], &'p [String])> {
    let Pred::Cmp(ScalarFunc::Eq, Scalar::Attr(a), Scalar::Attr(b)) = p else { return None };
    if lname == rname || a.len() < 2 || b.len() < 2 {
        return None;
    }
    match (a[0].as_str(), b[0].as_str()) {
        (x, y) if x == lname && y == rname => Some((&a[1..], &b[1..])),
        (x, y) if x == rname && y == lname => Some((&b[1..], &a[1..])),
        _ => None,
    }
}

/// Comparisons a (range-)select on the attribute BAT evaluates.
fn is_select_op(op: ScalarFunc) -> bool {
    matches!(op, ScalarFunc::Eq | ScalarFunc::Lt | ScalarFunc::Le | ScalarFunc::Gt | ScalarFunc::Ge)
}

/// Scalars whose translation is a constant: literals and parameters.
fn is_const_scalar(s: &Scalar) -> bool {
    matches!(s, Scalar::Lit(_) | Scalar::Param { .. })
}

fn flip_cmp(op: ScalarFunc) -> Option<ScalarFunc> {
    Some(match op {
        ScalarFunc::Eq => ScalarFunc::Eq,
        ScalarFunc::Ne => ScalarFunc::Ne,
        ScalarFunc::Lt => ScalarFunc::Gt,
        ScalarFunc::Le => ScalarFunc::Ge,
        ScalarFunc::Gt => ScalarFunc::Lt,
        ScalarFunc::Ge => ScalarFunc::Le,
        _ => return None,
    })
}
