//! The rule registry: planning lint probes and judging their outcomes.
//!
//! Linting is split into two phases so the host can solve the probes any
//! way it likes (the engine batches them through its parallel executor and
//! memo cache; the standalone [`LintEngine`](crate::LintEngine) solves
//! them sequentially):
//!
//! 1. [`plan`] decomposes every workspace query into a battery of decision
//!    [`Problem`]s — the [`Probe`]s — and runs the two pure passes
//!    (`unreachable-element` over the DTD content graphs,
//!    `wildcard-explosion` over the lean-diamond accounting) whose
//!    findings need no solver.
//! 2. [`judge`] maps the per-probe [`ProbeOutcome`]s back to findings,
//!    attaches evidence (the witness document of the probe that proves the
//!    finding, or the proving verdict), degrades inconclusive probes to
//!    info-level `unverified` diagnostics, and returns the deterministic,
//!    sorted diagnostics list.
//!
//! The probe battery per rule:
//!
//! | rule | probes |
//! |---|---|
//! | `dead-step` | `sat` of every step prefix (target's own qualifiers stripped) |
//! | `contradictory-predicate` | `sat` of the chain with / without each predicate conjunct, `equiv` of the query with / without it |
//! | `redundant-union-branch` | pairwise `contains` over `\|` branches, `sat` per branch |
//! | `query-shadowing` | pairwise `contains` over registered queries, `sat` per query |

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use analyzer::{Analyzer, Problem};
use ftree::Label;
use treetypes::Dtd;
use xpath::decompose::{self, PredicateSite, PrefixQuals, StepInfo};
use xpath::Expr;

use crate::diagnostic::{sort_diagnostics, Diagnostic, Evidence, RuleId, Severity};

/// Per-rule configuration: disabled, or enabled at a severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleSetting {
    /// The rule does not run (no probes are planned for it).
    Off,
    /// The rule runs; findings carry this severity.
    At(Severity),
}

/// Lint run configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintConfig {
    /// Per-rule overrides; rules not listed run at their default severity.
    pub settings: BTreeMap<RuleId, RuleSetting>,
    /// The `wildcard-explosion` threshold: lean-diamond counts above this
    /// flag the query. Defaults to the enumerating backends' cap
    /// ([`solver::MAX_EXPLICIT_DIAMONDS`]).
    pub max_diamonds: usize,
    /// The governing type: a name in the DTD list. `None` picks the single
    /// registered DTD when there is exactly one, untyped analysis
    /// otherwise.
    pub type_name: Option<String>,
}

impl Default for LintConfig {
    fn default() -> LintConfig {
        LintConfig {
            settings: BTreeMap::new(),
            max_diamonds: solver::MAX_EXPLICIT_DIAMONDS,
            type_name: None,
        }
    }
}

impl LintConfig {
    /// The effective severity of a rule: the override, or the table
    /// default. `None` means the rule is off.
    pub fn severity(&self, rule: RuleId) -> Option<Severity> {
        match self.settings.get(&rule) {
            Some(RuleSetting::Off) => None,
            Some(RuleSetting::At(s)) => Some(*s),
            None => Some(rule.default_severity()),
        }
    }
}

/// Which rule decision a probe feeds, with indices into the plan's query
/// artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeCase {
    /// `dead-step`: satisfiability of the prefix through `step`, the
    /// target's own qualifiers stripped. `chain_initial` marks the first
    /// step of its union/intersection branch (no predecessor witness).
    Prefix {
        /// Query index.
        query: usize,
        /// Spine-step index.
        step: usize,
        /// Whether the step starts its chain.
        chain_initial: bool,
    },
    /// Satisfiability of the whole query (shadowing evidence and dead-query
    /// suppression).
    FullSat {
        /// Query index.
        query: usize,
    },
    /// `contradictory-predicate`: satisfiability of the chain through the
    /// site's step, with or without the site conjunct.
    PredSat {
        /// Query index.
        query: usize,
        /// Site index.
        site: usize,
        /// Whether the site conjunct is kept.
        with_site: bool,
    },
    /// `contradictory-predicate`: equivalence of the query with and
    /// without the site conjunct.
    PredEquiv {
        /// Query index.
        query: usize,
        /// Site index.
        site: usize,
    },
    /// `redundant-union-branch`: satisfiability of one branch.
    BranchSat {
        /// Query index.
        query: usize,
        /// Branch index.
        branch: usize,
    },
    /// `redundant-union-branch`: branch `sub` contained in branch `sup`.
    BranchContains {
        /// Query index.
        query: usize,
        /// Contained branch index.
        sub: usize,
        /// Containing branch index.
        sup: usize,
    },
    /// `query-shadowing`: query `lhs` contained in query `rhs`.
    ShadowContains {
        /// Contained query index.
        lhs: usize,
        /// Containing query index.
        rhs: usize,
    },
}

/// One planned decision problem.
#[derive(Debug, Clone)]
pub struct Probe {
    /// The rule decision it feeds.
    pub case: ProbeCase,
    /// The problem to solve.
    pub problem: Problem,
}

/// One workspace query, decomposed.
#[derive(Debug, Clone)]
pub struct QueryArtifact {
    /// Workspace name.
    pub name: String,
    /// The (normalized) expression.
    pub expr: Arc<Expr>,
    /// Spine steps, in stable index order.
    pub steps: Vec<StepInfo>,
    /// Removable predicate sites.
    pub sites: Vec<PredicateSite>,
    /// Top-level union branches (the query itself when not a union).
    pub branches: Vec<Expr>,
}

/// The outcome of one probe, as reported by whoever solved it.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeOutcome {
    /// The property holds; `witness` carries the supporting model XML for
    /// satisfiability probes.
    Holds {
        /// Supporting model (oracle-verified), when one exists.
        witness: Option<String>,
    },
    /// The property fails; `witness` carries the counter-example XML for
    /// refutable probes.
    Fails {
        /// Counter-example document (oracle-verified), when one exists.
        witness: Option<String>,
    },
    /// A resource budget ran out before the probe could decide.
    Unknown {
        /// Human-readable exhaustion report.
        reason: String,
    },
    /// The solve failed (rejected witness).
    Error {
        /// The error message.
        reason: String,
    },
}

impl ProbeOutcome {
    fn holds(&self) -> bool {
        matches!(self, ProbeOutcome::Holds { .. })
    }

    fn fails(&self) -> bool {
        matches!(self, ProbeOutcome::Fails { .. })
    }

    fn inconclusive(&self) -> Option<&str> {
        match self {
            ProbeOutcome::Unknown { reason } | ProbeOutcome::Error { reason } => Some(reason),
            _ => None,
        }
    }

    fn witness(&self) -> Option<&str> {
        match self {
            ProbeOutcome::Holds { witness } | ProbeOutcome::Fails { witness } => witness.as_deref(),
            _ => None,
        }
    }
}

/// A planned lint run: the probes awaiting a solver, the findings of the
/// pure passes, and the artifacts [`judge`] needs to interpret outcomes.
#[derive(Debug)]
pub struct LintPlan {
    /// Decision problems to solve, in deterministic planning order.
    pub probes: Vec<Probe>,
    /// Findings of the solver-free passes (`unreachable-element`,
    /// `wildcard-explosion`).
    pub immediate: Vec<Diagnostic>,
    /// Decomposed queries, sorted by name.
    pub queries: Vec<QueryArtifact>,
    /// The configuration the plan was built under.
    pub config: LintConfig,
    /// The governing DTD, when one applies.
    pub ty: Option<Arc<Dtd>>,
}

/// Builds the probe battery and runs the pure passes.
///
/// `az` is only used by the `wildcard-explosion` pass (it compiles query
/// formulas to count lean diamonds); no satisfiability is solved here.
/// Queries are sorted by name so probe order — and therefore diagnostic
/// order — is deterministic. Fails when [`LintConfig::type_name`] names no
/// registered DTD.
pub fn plan(
    az: &mut Analyzer,
    queries: &[(String, Arc<Expr>)],
    dtds: &[(String, Arc<Dtd>)],
    config: &LintConfig,
) -> Result<LintPlan, String> {
    let ty: Option<Arc<Dtd>> = match &config.type_name {
        Some(name) => Some(
            dtds.iter()
                .find(|(n, _)| n == name)
                .map(|(_, d)| Arc::clone(d))
                .ok_or_else(|| format!("`{name}` is not a registered type"))?,
        ),
        None if dtds.len() == 1 => Some(Arc::clone(&dtds[0].1)),
        None => None,
    };

    for rule in RuleId::all() {
        if config.severity(rule).is_some() {
            obs::metrics()
                .counter("xsat_lint_rules_total", &[("rule", rule.as_str())])
                .inc();
        }
    }

    let mut artifacts: Vec<QueryArtifact> = queries
        .iter()
        .map(|(name, expr)| QueryArtifact {
            name: name.clone(),
            expr: Arc::clone(expr),
            steps: decompose::steps(expr),
            sites: decompose::predicate_sites(expr),
            branches: decompose::union_branches(expr),
        })
        .collect();
    artifacts.sort_by(|a, b| a.name.cmp(&b.name));

    let mut probes: Vec<Probe> = Vec::new();
    let dead_step = config.severity(RuleId::DeadStep).is_some();
    let contradiction = config.severity(RuleId::ContradictoryPredicate).is_some();
    let union_branch = config.severity(RuleId::RedundantUnionBranch).is_some();
    let shadowing = config.severity(RuleId::QueryShadowing).is_some();

    for (qi, q) in artifacts.iter().enumerate() {
        if dead_step {
            for step in 0..q.steps.len() {
                let p = decompose::prefix(&q.expr, step, PrefixQuals::Strip)
                    .expect("step index from the same decomposition");
                let chain_initial = decompose::steps(&p).len() == 1;
                probes.push(Probe {
                    case: ProbeCase::Prefix {
                        query: qi,
                        step,
                        chain_initial,
                    },
                    problem: Problem::sat(p, ty.clone()),
                });
            }
        }
        if contradiction {
            for (si, site) in q.sites.iter().enumerate() {
                let removed = decompose::without_site(&q.expr, site)
                    .expect("site from the same decomposition");
                let with = decompose::prefix(&q.expr, site.step, PrefixQuals::Keep)
                    .expect("site step in range");
                let without = decompose::prefix(&removed, site.step, PrefixQuals::Keep)
                    .expect("removal preserves spine indices");
                probes.push(Probe {
                    case: ProbeCase::PredSat {
                        query: qi,
                        site: si,
                        with_site: true,
                    },
                    problem: Problem::sat(with, ty.clone()),
                });
                probes.push(Probe {
                    case: ProbeCase::PredSat {
                        query: qi,
                        site: si,
                        with_site: false,
                    },
                    problem: Problem::sat(without, ty.clone()),
                });
                probes.push(Probe {
                    case: ProbeCase::PredEquiv {
                        query: qi,
                        site: si,
                    },
                    problem: Problem::equiv(Arc::clone(&q.expr), ty.clone(), removed, ty.clone()),
                });
            }
        }
        if union_branch && q.branches.len() >= 2 {
            for (bi, branch) in q.branches.iter().enumerate() {
                probes.push(Probe {
                    case: ProbeCase::BranchSat {
                        query: qi,
                        branch: bi,
                    },
                    problem: Problem::sat(branch.clone(), ty.clone()),
                });
                for (bj, other) in q.branches.iter().enumerate() {
                    if bi == bj {
                        continue;
                    }
                    probes.push(Probe {
                        case: ProbeCase::BranchContains {
                            query: qi,
                            sub: bi,
                            sup: bj,
                        },
                        problem: Problem::contains(
                            branch.clone(),
                            ty.clone(),
                            other.clone(),
                            ty.clone(),
                        ),
                    });
                }
            }
        }
        if shadowing {
            probes.push(Probe {
                case: ProbeCase::FullSat { query: qi },
                problem: Problem::sat(Arc::clone(&q.expr), ty.clone()),
            });
        }
    }
    if shadowing {
        for i in 0..artifacts.len() {
            for j in (i + 1)..artifacts.len() {
                for (lhs, rhs) in [(i, j), (j, i)] {
                    probes.push(Probe {
                        case: ProbeCase::ShadowContains { lhs, rhs },
                        problem: Problem::contains(
                            Arc::clone(&artifacts[lhs].expr),
                            ty.clone(),
                            Arc::clone(&artifacts[rhs].expr),
                            ty.clone(),
                        ),
                    });
                }
            }
        }
    }

    let mut immediate = Vec::new();
    if let Some(sev) = config.severity(RuleId::UnreachableElement) {
        for (name, dtd) in dtds {
            unreachable_elements(name, dtd, sev, &mut immediate);
        }
    }
    if let Some(sev) = config.severity(RuleId::WildcardExplosion) {
        for q in &artifacts {
            wildcard_explosion(
                az,
                q,
                ty.as_deref(),
                config.max_diamonds,
                sev,
                &mut immediate,
            );
        }
    }

    Ok(LintPlan {
        probes,
        immediate,
        queries: artifacts,
        config: config.clone(),
        ty,
    })
}

/// The `unreachable-element` pure pass: BFS over the DTD content graph
/// from the root element; declared elements never reached are findings.
fn unreachable_elements(name: &str, dtd: &Dtd, sev: Severity, out: &mut Vec<Diagnostic>) {
    let mut reached: HashSet<Label> = HashSet::new();
    let mut frontier = vec![dtd.start()];
    while let Some(label) = frontier.pop() {
        if !reached.insert(label) {
            continue;
        }
        if let Some(content) = dtd.content(label) {
            let mut mentioned = Vec::new();
            content.mentioned(&mut mentioned);
            frontier.extend(mentioned);
        }
    }
    for (label, _) in dtd.elements() {
        if !reached.contains(label) {
            out.push(Diagnostic {
                rule: RuleId::UnreachableElement,
                severity: sev,
                subject: name.to_owned(),
                step: None,
                span: Some(label.to_string()),
                message: format!(
                    "element `{label}` is declared but unreachable from document root `{}`",
                    dtd.start()
                ),
                evidence: None,
            });
        }
    }
}

/// The `wildcard-explosion` pure pass: reads the lean-diamond accounting
/// of the compiled query formula — the same [`solver::lean_diamonds`]
/// measure the enumerating reference backends' lean cap gates on — and
/// localizes the first step whose prefix crosses the threshold.
fn wildcard_explosion(
    az: &mut Analyzer,
    q: &QueryArtifact,
    ty: Option<&Dtd>,
    cap: usize,
    sev: Severity,
    out: &mut Vec<Diagnostic>,
) {
    let goal = az.query_formula(&q.expr, ty);
    let total = solver::lean_diamonds(az.logic_mut(), goal);
    if total <= cap {
        return;
    }
    let mut at: Option<usize> = None;
    for step in 0..q.steps.len() {
        let Some(p) = decompose::prefix(&q.expr, step, PrefixQuals::Keep) else {
            break;
        };
        let g = az.query_formula(&p, ty);
        if solver::lean_diamonds(az.logic_mut(), g) > cap {
            at = Some(step);
            break;
        }
    }
    let span = at.map(|i| q.steps[i].display.clone());
    let localized = match at {
        Some(i) => format!("; first exceeded at step {i}"),
        None => String::new(),
    };
    out.push(Diagnostic {
        rule: RuleId::WildcardExplosion,
        severity: sev,
        subject: q.name.clone(),
        step: at,
        span,
        message: format!(
            "lean has {total} diamond modalities (cap {cap}): enumeration-based backends \
             are infeasible, solving is symbolic-only{localized}"
        ),
        evidence: None,
    });
}

/// Interprets probe outcomes into findings.
///
/// `outcomes` must be parallel to `plan.probes`. Findings are sorted into
/// the protocol's deterministic order and counted into
/// `xsat_lint_findings_total`. Probes that came back `unknown` (or failed
/// at the solver level) degrade the affected rule decision to an
/// info-level `unverified` diagnostic instead of a hard error.
pub fn judge(plan: &LintPlan, outcomes: &[ProbeOutcome]) -> Vec<Diagnostic> {
    assert_eq!(
        outcomes.len(),
        plan.probes.len(),
        "one outcome per planned probe"
    );
    let mut by_case: HashMap<ProbeCase, usize> = HashMap::new();
    for (i, p) in plan.probes.iter().enumerate() {
        by_case.insert(p.case, i);
    }
    let out = |case: ProbeCase| by_case.get(&case).map(|&i| (&outcomes[i], i));
    let problem = |i: usize| plan.probes[i].problem.clone();

    let mut diags = plan.immediate.clone();

    if let Some(sev) = plan.config.severity(RuleId::DeadStep) {
        for (qi, q) in plan.queries.iter().enumerate() {
            for step in 0..q.steps.len() {
                let case = |chain_initial| ProbeCase::Prefix {
                    query: qi,
                    step,
                    chain_initial,
                };
                let Some((o, i)) = out(case(true)).or_else(|| out(case(false))) else {
                    continue;
                };
                let chain_initial = matches!(
                    plan.probes[i].case,
                    ProbeCase::Prefix {
                        chain_initial: true,
                        ..
                    }
                );
                if let Some(reason) = o.inconclusive() {
                    diags.push(unverified(
                        RuleId::DeadStep,
                        &q.name,
                        Some(step),
                        Some(q.steps[step].display.clone()),
                        &format!("dead-step analysis of step {step} inconclusive"),
                        reason,
                    ));
                    break;
                }
                if !o.fails() {
                    continue;
                }
                // First dead step of the query: localize and stop (every
                // later prefix is unsatisfiable too).
                let schema = match &plan.ty {
                    Some(_) => "the governing schema",
                    None => "any schema",
                };
                let (message, evidence) = if chain_initial {
                    (
                        format!(
                            "step {step} (`{}`) selects nothing under {schema}",
                            q.steps[step].display
                        ),
                        Evidence::Verdict {
                            problem: problem(i),
                            status: "fails",
                        },
                    )
                } else {
                    let prev = out(ProbeCase::Prefix {
                        query: qi,
                        step: step - 1,
                        chain_initial: false,
                    })
                    .or_else(|| {
                        out(ProbeCase::Prefix {
                            query: qi,
                            step: step - 1,
                            chain_initial: true,
                        })
                    });
                    let evidence = match prev {
                        Some((po, pi)) if po.holds() && po.witness().is_some() => {
                            Evidence::Witness {
                                problem: problem(pi),
                                xml: po.witness().expect("checked").to_owned(),
                            }
                        }
                        _ => Evidence::Verdict {
                            problem: problem(i),
                            status: "fails",
                        },
                    };
                    (
                        format!(
                            "step {step} (`{}`) selects nothing under {schema}; \
                             the path up to step {} is satisfiable",
                            q.steps[step].display,
                            step - 1
                        ),
                        evidence,
                    )
                };
                diags.push(Diagnostic {
                    rule: RuleId::DeadStep,
                    severity: sev,
                    subject: q.name.clone(),
                    step: Some(step),
                    span: Some(q.steps[step].display.clone()),
                    message,
                    evidence: Some(evidence),
                });
                break;
            }
        }
    }

    if let Some(sev) = plan.config.severity(RuleId::ContradictoryPredicate) {
        for (qi, q) in plan.queries.iter().enumerate() {
            for (si, site) in q.sites.iter().enumerate() {
                let with = out(ProbeCase::PredSat {
                    query: qi,
                    site: si,
                    with_site: true,
                });
                let without = out(ProbeCase::PredSat {
                    query: qi,
                    site: si,
                    with_site: false,
                });
                let equiv = out(ProbeCase::PredEquiv {
                    query: qi,
                    site: si,
                });
                let (Some((w, _)), Some((wo, wo_i)), Some((eq, eq_i))) = (with, without, equiv)
                else {
                    continue;
                };
                let span = format!("{}[{}]", q.steps[site.step].display, site.display);
                if w.fails() && wo.holds() {
                    diags.push(Diagnostic {
                        rule: RuleId::ContradictoryPredicate,
                        severity: sev,
                        subject: q.name.clone(),
                        step: Some(site.step),
                        span: Some(span),
                        message: format!(
                            "predicate `[{}]` on step {} contradicts the schema: the step \
                             selects nothing with it and is satisfiable without it",
                            site.display, site.step
                        ),
                        evidence: Some(match wo.witness() {
                            Some(xml) => Evidence::Witness {
                                problem: problem(wo_i),
                                xml: xml.to_owned(),
                            },
                            None => Evidence::Verdict {
                                problem: problem(wo_i),
                                status: "holds",
                            },
                        }),
                    });
                    continue;
                }
                if w.fails() && wo.fails() {
                    // The chain is dead with or without the predicate —
                    // `dead-step` territory, not the predicate's fault.
                    continue;
                }
                if w.holds() && eq.holds() {
                    diags.push(Diagnostic {
                        rule: RuleId::ContradictoryPredicate,
                        severity: sev,
                        subject: q.name.clone(),
                        step: Some(site.step),
                        span: Some(span),
                        message: format!(
                            "predicate `[{}]` on step {} is redundant: removing it provably \
                             does not change the selected set",
                            site.display, site.step
                        ),
                        evidence: Some(Evidence::Verdict {
                            problem: problem(eq_i),
                            status: "holds",
                        }),
                    });
                    continue;
                }
                if let Some(reason) = [w, wo, eq].iter().find_map(|o| o.inconclusive()) {
                    // Only degrade when no definite decision was reached.
                    if !(w.holds() && eq.fails()) {
                        diags.push(unverified(
                            RuleId::ContradictoryPredicate,
                            &q.name,
                            Some(site.step),
                            Some(span),
                            &format!("predicate analysis of `[{}]` inconclusive", site.display),
                            reason,
                        ));
                    }
                }
            }
        }
    }

    if let Some(sev) = plan.config.severity(RuleId::RedundantUnionBranch) {
        for (qi, q) in plan.queries.iter().enumerate() {
            if q.branches.len() < 2 {
                continue;
            }
            // Spine indices are contiguous per branch, so branch `k`
            // starts at the sum of the earlier branches' step counts.
            let mut starts = Vec::with_capacity(q.branches.len());
            let mut acc = 0;
            for b in &q.branches {
                starts.push(acc);
                acc += decompose::steps(b).len();
            }
            for (bi, &branch_start) in starts.iter().enumerate() {
                let sat = out(ProbeCase::BranchSat {
                    query: qi,
                    branch: bi,
                });
                let mut covered_by: Option<(usize, usize)> = None;
                let mut inconclusive: Option<String> = None;
                for bj in 0..q.branches.len() {
                    if bi == bj {
                        continue;
                    }
                    let fwd = out(ProbeCase::BranchContains {
                        query: qi,
                        sub: bi,
                        sup: bj,
                    });
                    let bwd = out(ProbeCase::BranchContains {
                        query: qi,
                        sub: bj,
                        sup: bi,
                    });
                    let Some((f, f_i)) = fwd else { continue };
                    if let Some(reason) = f.inconclusive() {
                        inconclusive = Some(reason.to_owned());
                        continue;
                    }
                    if !f.holds() {
                        continue;
                    }
                    // Mutually-equivalent branches: flag only the later
                    // one, so one of the pair survives.
                    let mutual = bwd.is_some_and(|(b, _)| b.holds());
                    if !mutual || bj < bi {
                        covered_by = Some((bj, f_i));
                        break;
                    }
                }
                match (covered_by, sat) {
                    (Some((bj, f_i)), Some((s, s_i))) => {
                        if s.fails() {
                            // A dead branch is `dead-step` territory.
                            continue;
                        }
                        let evidence = Some(match s.witness() {
                            Some(xml) => Evidence::Witness {
                                problem: problem(s_i),
                                xml: xml.to_owned(),
                            },
                            // The branch's own sat probe was inconclusive;
                            // the containment verdict still proves the
                            // redundancy.
                            None => Evidence::Verdict {
                                problem: problem(f_i),
                                status: "holds",
                            },
                        });
                        diags.push(Diagnostic {
                            rule: RuleId::RedundantUnionBranch,
                            severity: sev,
                            subject: q.name.clone(),
                            step: Some(branch_start),
                            span: Some(q.branches[bi].to_string()),
                            message: format!(
                                "union branch {bi} (`{}`) is contained in branch {bj} (`{}`): \
                                 the union selects the same set without it",
                                q.branches[bi], q.branches[bj]
                            ),
                            evidence,
                        });
                    }
                    (None, _) => {
                        if let Some(reason) = inconclusive {
                            diags.push(unverified(
                                RuleId::RedundantUnionBranch,
                                &q.name,
                                Some(branch_start),
                                Some(q.branches[bi].to_string()),
                                &format!("containment of union branch {bi} inconclusive"),
                                &reason,
                            ));
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    if let Some(sev) = plan.config.severity(RuleId::QueryShadowing) {
        for i in 0..plan.queries.len() {
            for j in (i + 1)..plan.queries.len() {
                let sat_i = out(ProbeCase::FullSat { query: i });
                let sat_j = out(ProbeCase::FullSat { query: j });
                let fwd = out(ProbeCase::ShadowContains { lhs: i, rhs: j });
                let bwd = out(ProbeCase::ShadowContains { lhs: j, rhs: i });
                let (Some((si, si_idx)), Some((sj, sj_idx)), Some((f, _)), Some((b, _))) =
                    (sat_i, sat_j, fwd, bwd)
                else {
                    continue;
                };
                if si.fails() || sj.fails() {
                    // A dead query trivially sits inside everything;
                    // `dead-step` reports the real defect.
                    continue;
                }
                if let Some(reason) = [f, b, si, sj].iter().find_map(|o| o.inconclusive()) {
                    if !(f.fails() && b.fails()) {
                        diags.push(unverified(
                            RuleId::QueryShadowing,
                            &plan.queries[j].name,
                            None,
                            None,
                            &format!(
                                "shadowing analysis of `{}` against `{}` inconclusive",
                                plan.queries[i].name, plan.queries[j].name
                            ),
                            reason,
                        ));
                    }
                    continue;
                }
                let (subject_idx, sat_sub, message) = match (f.holds(), b.holds()) {
                    (true, true) => (
                        j,
                        (sj, sj_idx),
                        format!(
                            "query `{}` is equivalent to query `{}`: both select exactly \
                             the same set",
                            plan.queries[j].name, plan.queries[i].name
                        ),
                    ),
                    (true, false) => (
                        i,
                        (si, si_idx),
                        format!(
                            "query `{}` is shadowed by `{}`: every node it selects is \
                             already selected there",
                            plan.queries[i].name, plan.queries[j].name
                        ),
                    ),
                    (false, true) => (
                        j,
                        (sj, sj_idx),
                        format!(
                            "query `{}` is shadowed by `{}`: every node it selects is \
                             already selected there",
                            plan.queries[j].name, plan.queries[i].name
                        ),
                    ),
                    (false, false) => continue,
                };
                let (s, s_idx) = sat_sub;
                diags.push(Diagnostic {
                    rule: RuleId::QueryShadowing,
                    severity: sev,
                    subject: plan.queries[subject_idx].name.clone(),
                    step: None,
                    span: None,
                    message,
                    evidence: Some(match s.witness() {
                        Some(xml) => Evidence::Witness {
                            problem: problem(s_idx),
                            xml: xml.to_owned(),
                        },
                        None => Evidence::Verdict {
                            problem: problem(s_idx),
                            status: "holds",
                        },
                    }),
                });
            }
        }
    }

    sort_diagnostics(&mut diags);
    let m = obs::metrics();
    for d in &diags {
        m.counter(
            "xsat_lint_findings_total",
            &[("rule", d.rule.as_str()), ("severity", d.severity.as_str())],
        )
        .inc();
    }
    diags
}

/// An info-level degradation for a rule decision whose probes came back
/// inconclusive (`unknown` budget exhaustion or a solver-level error).
fn unverified(
    rule: RuleId,
    subject: &str,
    step: Option<usize>,
    span: Option<String>,
    what: &str,
    reason: &str,
) -> Diagnostic {
    Diagnostic {
        rule,
        severity: Severity::Info,
        subject: subject.to_owned(),
        step,
        span,
        message: format!("unverified: {what} ({reason})"),
        evidence: None,
    }
}
