//! Checkpoint / restore of an [`IncrementalChecker`].
//!
//! A real-time checker must survive restarts without replaying the whole
//! history — and the bounded encoding makes that cheap: the checkpoint is
//! exactly the current state plus the (bounded) auxiliary relations. This
//! module serializes both to a line-oriented text format and restores a
//! checker that continues *identically* to one that never stopped
//! (the differential oracle's `stitch` mode, `crates/oracle`).
//!
//! Format sketch:
//!
//! ```text
//! rtic-checkpoint v1
//! constraint unconfirmed
//! body reserved(p, f) && …
//! time 42
//! steps 37
//! dispatch 30 5 2 0
//! rel reserved
//! | "ann", 17
//! endrel
//! node 0 once
//! 3 9 | "ann", 17
//! endnode
//! ```
//!
//! A fleet ([`save_set`]) writes one such section per constraint over
//! *one* database: the first section carries the `rel` blocks, every
//! other one the line `database shared` in their place.
//!
//! The reader accepts exactly this layout. Anything else — a section
//! without its `dispatch` line, a second copy of the database, a key or a
//! node block listed twice, the markers of the deleted per-key shard
//! plane — is a [`CheckpointError::Format`] naming its line, as any
//! malformed input is: the log is the source of truth, and replaying it
//! rebuilds what a refused checkpoint held.
//!
//! Each aux entry line is `«numbers» | «value literals»`: the numeric
//! prefix (timestamps, flags) never contains strings, so splitting on the
//! first `|` is unambiguous.
//!
//! ```
//! use rtic_core::checkpoint::{restore, save};
//! use rtic_core::{Checker, EncodingOptions, IncrementalChecker};
//! use rtic_relation::{tuple, Catalog, Schema, Sort, Update};
//! use rtic_temporal::parser::parse_constraint;
//! use rtic_temporal::TimePoint;
//! use std::sync::Arc;
//!
//! let catalog = Arc::new(
//!     Catalog::new().with("p", Schema::of(&[("x", Sort::Str)])).unwrap(),
//! );
//! let c = parse_constraint("deny d: p(x) && once[2,*] p(x)").unwrap();
//! let mut checker = IncrementalChecker::new(c.clone(), Arc::clone(&catalog)).unwrap();
//! checker
//!     .step(TimePoint(1), &Update::new().with_insert("p", tuple!["a"]))
//!     .unwrap();
//! let snapshot = save(&checker); // plain text, a few lines
//! drop(checker); // "crash"
//! let mut resumed =
//!     restore(c, catalog, EncodingOptions::default(), &snapshot).unwrap();
//! let report = resumed.step(TimePoint(3), &Update::new()).unwrap();
//! assert_eq!(report.violation_count(), 1); // p(a) is now 2 old — as if never stopped
//! ```

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use rtic_relation::{push_decimal, Catalog, Database, Lexer, Names, Symbol, TupleSet, Value};
use rtic_temporal::{Constraint, Formula, TimePoint};

use crate::compile::CompiledConstraint;
use crate::incremental::{EncodingOptions, IncrementalChecker, NodeEngine, NodeState, Settled};
use crate::set::{ConstraintSet, DispatchStats};

/// A checkpoint failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckpointError {
    /// The text is not a well-formed checkpoint.
    Format {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The checkpoint does not belong to the given constraint/catalog.
    Mismatch {
        /// What differed.
        message: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Format { line, message } => {
                write!(f, "checkpoint line {line}: {message}")
            }
            CheckpointError::Mismatch { message } => {
                write!(f, "checkpoint mismatch: {message}")
            }
        }
    }
}

impl Error for CheckpointError {}

/// What a fleet section says in place of its `rel` blocks when another
/// section of the checkpoint holds the set's one database. A marker, not
/// an absence: neither rows nor marker is the *empty* database.
const DATABASE_SHARED: &str = "database shared";

/// Serializes the checker's full state: the one section [`save_set`]
/// writes for its set of one (empty once its engine has panicked).
pub fn save(checker: &IncrementalChecker) -> String {
    save_set(&checker.0)
        .pop()
        .map(|(_, section)| section)
        .unwrap_or_default()
}

/// Serializes a fleet: one `(constraint, v1 section)` per **healthy**
/// constraint, in insertion order. The set's one database goes into the
/// first section only and every other one says `database shared`, so the
/// checkpoint is O(|database| + Σ|aux state|); the whole list restores
/// the set, or any subset of its constraints ([`restore_set`]).
/// Quarantined engines are excluded — their mid-panic state is not
/// trustworthy — so resuming such a checkpoint with the full constraint
/// file fails with a missing-section error for the quarantined constraint.
pub fn save_set(set: &ConstraintSet) -> Vec<(Symbol, String)> {
    let dispatch = set.dispatch_stats();
    set.healthy_engines()
        .enumerate()
        .map(|(i, engine)| {
            let db = (i == 0).then(|| set.database());
            (
                engine.compiled.constraint.name,
                save_parts(db, engine, set.steps(), dispatch),
            )
        })
        .collect()
}

/// A section being written, in one pass over borrowed state: the text so
/// far and the symbol table, locked once for the whole section rather
/// than once per string value.
struct Section {
    out: String,
    names: Names,
}

impl Section {
    fn str(&mut self, s: &str) -> &mut Section {
        self.out.push_str(s);
        self
    }

    fn num(&mut self, n: u64) -> &mut Section {
        push_decimal(&mut self.out, n);
        self
    }

    fn name(&mut self, s: Symbol) -> &mut Section {
        self.out.push_str(self.names.get(s));
        self
    }

    /// ` n` for each of `numbers`, then the line's end.
    fn list(&mut self, numbers: impl IntoIterator<Item = u64>) {
        for n in numbers {
            self.str(" ").num(n);
        }
        self.str("\n");
    }

    /// A `| «value literals»` line.
    fn values(&mut self, values: impl IntoIterator<Item = Value>) {
        self.str("| ");
        for (i, v) in values.into_iter().enumerate() {
            if i > 0 {
                self.str(", ");
            }
            v.push_literal(&self.names, &mut self.out);
        }
        self.str("\n");
    }
}

/// One `rtic-checkpoint v1` section for an engine over `db` (`None`:
/// another section holds it), with the set's `dispatch` tallies
/// (identical in every section, restored so counters keep matching
/// engine-steps across resume). A sleeping engine is saved as the eager
/// path would have left it.
fn save_parts(
    db: Option<&Database>,
    engine: &NodeEngine,
    steps: usize,
    d: DispatchStats,
) -> String {
    let names = Symbol::names();
    let mut s = Section {
        out: String::with_capacity(section_len(db, engine, &names)),
        names,
    };
    s.str("rtic-checkpoint v1\nconstraint ")
        .name(engine.compiled.constraint.name)
        .str("\nbody ")
        .str(&engine.compiled.body_text)
        .str("\ntime ");
    match engine.settled_time() {
        Some(t) => s.num(t.0),
        None => s.str("none"),
    };
    s.str("\nsteps ").num(steps as u64).str("\ndispatch");
    s.list([d.affected, d.skipped, d.quiescent_full, d.quarantined]);
    // Current database state, or the note that another section has it.
    match db {
        None => {
            s.str(DATABASE_SHARED).str("\n");
        }
        Some(db) => {
            for name in db.catalog().names() {
                let rel = db.relation(name).expect("catalogued");
                if rel.is_empty() {
                    continue;
                }
                s.str("rel ").name(name).str("\n");
                for t in rel.sorted() {
                    s.values(t.values().iter().copied());
                }
                s.str("endrel\n");
            }
        }
    }
    write_nodes(&mut s, engine);
    s.out
}

/// About how long [`save_parts`]' section is, to allocate it once: the rows
/// measured, a node entry as long as a row on average plus its numbers.
fn section_len(db: Option<&Database>, engine: &NodeEngine, names: &Names) -> usize {
    let (mut len, mut rows) = (256 + engine.compiled.body_text.len(), 1);
    for rel in db
        .iter()
        .flat_map(|db| db.catalog().names().map(|n| db.relation(n)))
    {
        for row in rel.expect("catalogued").iter() {
            let values = row.values().iter().map(|v| 2 + v.literal_len(names));
            (len, rows) = (len + 1 + values.sum::<usize>(), rows + 1);
        }
    }
    let (keys, numbers) = engine.aux_space();
    let newest = Value::Int(engine.settled_time().map_or(0, |t| t.0 as i64));
    len + keys * (len / rows).max(8) + numbers * (1 + newest.literal_len(names))
}

/// A node block's kind word.
fn kind(node: &Formula) -> &'static str {
    match node {
        Formula::Prev(..) => "prev",
        Formula::Once(..) => "once",
        Formula::Since(..) => "since",
        Formula::Hist(i, _) if i.is_bounded() => "histf",
        _ => "histi",
    }
}

/// The `node <idx> <kind> … endnode` blocks for an engine's auxiliary
/// states, settled: a `prev` block its previous rows; a run relation per
/// key its checkpoint numbers, after `times` (`histf`) or `started`/
/// `older`/`recent` (`histi`). Rows and keys are written, and sorted, in
/// name order.
fn write_nodes(s: &mut Section, engine: &NodeEngine) {
    let mut idx = 0u64;
    let mut key_orders = engine.compiled.node_keys.iter();
    engine.settled(|node, state| {
        let (kind, keys) = (kind(node), key_orders.next().expect("a key order per node"));
        s.str("node ").num(idx).str(" ").str(kind).str("\n");
        idx += 1;
        match state {
            Settled::Prev(p, moved) => {
                if let Some((t, rows)) = p.dump() {
                    s.str("time ").num(moved.unwrap_or(t).0).str("\n");
                    // Shared as they are when the orders agree, else copied.
                    let rows = keys.bindings(rows.clone());
                    for r in rows.sorted_rows() {
                        s.values(r.values().iter().copied());
                    }
                }
            }
            Settled::Runs(r) => {
                if kind == "histf" {
                    s.str("times").list(r.times().map(|t| t.0));
                } else if kind == "histi" {
                    let (older, started) = (r.older(), r.times().next().is_some());
                    let started = if started { "true" } else { "false" };
                    s.str("started ").str(started);
                    match older {
                        Some(t) => s.str("\nolder ").num(t.0),
                        None => s.str("\nolder none"),
                    };
                    let recent = r.times().skip(usize::from(older.is_some()));
                    s.str("\nrecent").list(recent.map(|t| t.0));
                }
                r.entries(
                    |a, b| keys.cmp(a, b),
                    |key, numbers| {
                        for &n in numbers {
                            s.num(n).str(" ");
                        }
                        s.values(keys.values(key));
                    },
                );
            }
        }
        s.str("endnode\n");
    });
}

/// A section's lines, read as they are met: trimmed, blank ones skipped,
/// each numbered for the error that may name it.
#[derive(Default)]
struct Reader<'s> {
    /// The text after the line ahead.
    rest: &'s str,
    /// The next non-blank line and its number.
    ahead: Option<(usize, &'s str)>,
    /// The number of the last line handed out.
    line: usize,
    /// The section's newest state, which no restored timestamp may pass.
    time: Option<TimePoint>,
    /// The last entry's numbers and values: buffers reused line to line.
    nums: Vec<u64>,
    values: Vec<Value>,
}

impl<'s> Reader<'s> {
    fn new(text: &'s str) -> Reader<'s> {
        let mut r = Reader::default();
        r.rest = text;
        r.ahead = r.scan(0);
        r
    }

    /// The next non-blank line after line `n`, the last one scanned.
    fn scan(&mut self, mut n: usize) -> Option<(usize, &'s str)> {
        while !self.rest.is_empty() {
            let (line, rest) = self.rest.split_once('\n').unwrap_or((self.rest, ""));
            (self.rest, n) = (rest, n + 1);
            if !line.trim().is_empty() {
                return Some((n, line.trim()));
            }
        }
        None
    }

    fn next(&mut self) -> Option<&'s str> {
        let (n, l) = self.ahead?;
        (self.line, self.ahead) = (n, self.scan(n));
        Some(l)
    }

    /// Reads the next line, unless it is its block's `end`, as an entry
    /// into `nums` and `values`, its strings interned left to right under
    /// the block's one lock (see [`Names`]). False at the end.
    fn entry(&mut self, end: &str, names: &mut Names) -> Result<bool, CheckpointError> {
        let Some(line) = self.ahead.filter(|a| a.1 != end).and_then(|_| self.next()) else {
            return Ok(false);
        };
        let missing = || self.err("entry line missing `|`");
        let (nums, vals) = line.split_once('|').ok_or_else(missing)?;
        self.nums.clear();
        for w in nums.split_whitespace() {
            self.nums.push(self.parse(w, "bad number")?);
        }
        self.values.clear();
        let lex = Lexer::new(vals.as_bytes());
        let read = lex.literals(|s| names.intern(s), &mut self.values);
        read.map(|()| true).map_err(|m| self.err(m))
    }

    /// About how many lines the block just opened holds: a capacity hint.
    fn block_len(&self, end: &str) -> usize {
        let block = self.rest.find(end).map_or(self.rest, |at| &self.rest[..at]);
        1 + block.bytes().filter(|&b| b == b'\n').count()
    }

    fn err(&self, message: impl Into<String>) -> CheckpointError {
        let (line, message) = (self.line, message.into());
        CheckpointError::Format { line, message }
    }

    fn expect_kv(&mut self, key: &str) -> Result<&'s str, CheckpointError> {
        let found = self.next();
        match found.and_then(|l| l.strip_prefix(key)?.strip_prefix(' ')) {
            Some(value) => Ok(value),
            None => Err(self.err(format!(
                "expected `{key} …`, found {}",
                found.map_or("end of checkpoint".into(), |l| format!("`{l}`"))
            ))),
        }
    }

    /// Checks restored timestamps — a node's expiry index is rebuilt from
    /// exactly these — ascend strictly and none is later than `time`.
    fn check<T: IntoIterator<Item = u64>>(&self, what: &str, ts: T) -> Result<(), CheckpointError> {
        let mut last = None;
        for t in ts {
            if let Some(prev) = last.filter(|&p| p >= t) {
                return Err(self.err(format!("{what} must ascend ({prev} then {t})")));
            }
            last = Some(t);
        }
        match (last, self.time) {
            (Some(last), Some(TimePoint(t))) if last > t => {
                Err(self.err(format!("{what}: {last} is after the checkpoint's time {t}")))
            }
            (Some(last), None) => Err(self.err(format!(
                "{what}: {last} in a checkpoint taken before any state"
            ))),
            _ => Ok(()),
        }
    }

    /// `text` as a number, `what` naming it in the error.
    fn parse(&self, text: &str, what: &str) -> Result<u64, CheckpointError> {
        text.parse().map_err(|e| self.err(format!("{what}: {e}")))
    }

    /// A `<key>` line listing zero or more timestamps (`times`, or
    /// `times 3 4`): the writer emits the bare key for an empty list.
    fn expect_times(&mut self, key: &str) -> Result<Vec<TimePoint>, CheckpointError> {
        let found = self.next();
        match found.and_then(|l| l.strip_prefix(key)) {
            Some(rest) if rest.is_empty() || rest.starts_with(' ') => (rest.split_whitespace())
                .map(|w| self.parse(w, "bad time").map(TimePoint))
                .collect(),
            _ => Err(self.err(format!(
                "expected `{key}` and its timestamps, found `{}`",
                found.unwrap_or("end of checkpoint")
            ))),
        }
    }
}

/// Restores a checker from checkpoint text: [`restore_set_with_options`]
/// for a set of one. The same `constraint`, `catalog` and `options` the
/// original was built with must be supplied; the constraint's compiled
/// body is verified against the checkpoint.
pub fn restore(
    constraint: Constraint,
    catalog: Arc<Catalog>,
    options: EncodingOptions,
    text: &str,
) -> Result<IncrementalChecker, CheckpointError> {
    let set = restore_set_with_options([constraint], catalog, options, &[text])?;
    Ok(IncrementalChecker(set))
}

/// Restores a whole fleet from the sections of a multi-section
/// checkpoint (see [`save_set`]). Sections are matched to constraints by
/// name. The shared database is parsed once, from the section *of the
/// file* that carries it — whether or not that constraint is being
/// restored, so any subset resumes over the full database. The step/time
/// cursor must agree across sections.
pub fn restore_set(
    constraints: impl IntoIterator<Item = Constraint>,
    catalog: Arc<Catalog>,
    sections: &[impl AsRef<str>],
) -> Result<ConstraintSet, CheckpointError> {
    restore_set_with_options(constraints, catalog, EncodingOptions::default(), sections)
}

/// [`restore_set`] with explicit [`EncodingOptions`] applied to every
/// restored engine (e.g. `profile_plans` to profile a resumed run).
pub fn restore_set_with_options(
    constraints: impl IntoIterator<Item = Constraint>,
    catalog: Arc<Catalog>,
    options: EncodingOptions,
    sections: &[impl AsRef<str>],
) -> Result<ConstraintSet, CheckpointError> {
    let mut set = ConstraintSet::with_options(constraints, catalog, options)
        .map_err(|(c, e)| mismatch(format!("constraint `{}` failed to compile: {e}", c.name)))?;
    let parts = set.parts_mut();
    let sections: Vec<&str> = sections.iter().map(AsRef::as_ref).collect();
    // A lone section that names no constraint matches none: restoring it
    // says where it is malformed.
    let lone = match (&sections[..], &parts.engines[..]) {
        ([section], [_]) if section_constraint_name(section).is_none() => Some(*section),
        _ => None,
    };
    let first = parts.engines.first().map(|e| e.compiled.constraint.name);
    let mut cursor: Option<(usize, Option<TimePoint>)> = None;
    let mut dispatch: Option<DispatchStats> = None;
    // Whether a restored section carried the database: only the first may,
    // and a `rel` block in any later one is an unexpected line.
    let mut applied = false;
    for engine in parts.engines.iter_mut() {
        let name = engine.compiled.constraint.name;
        let section = sections
            .iter()
            .copied()
            .find(|s| section_constraint_name(s) == Some(name.as_str()))
            .or(lone)
            .ok_or_else(|| {
                mismatch(format!(
                    "checkpoint has no section for constraint `{name}` \
                     (it may have been quarantined when the checkpoint was written, \
                     or the constraint file has changed)"
                ))
            })?;
        let shared = database_is_shared(section);
        let db = (!shared && !std::mem::replace(&mut applied, true)).then_some(&mut *parts.db);
        let (steps, section_dispatch) = restore_section(db, shared, engine, section)?;
        dispatch.get_or_insert(section_dispatch);
        let this = (steps, engine.last_time);
        match cursor {
            None => cursor = Some(this),
            Some(prev) if prev != this => {
                return Err(mismatch(format!(
                    "checkpoint sections disagree on the resume cursor (constraint `{name}` \
                     is at steps={} t={:?}, earlier sections at steps={} t={:?})",
                    this.0, this.1, prev.0, prev.1
                )));
            }
            Some(_) => {}
        }
    }
    if !applied && cursor.is_some() {
        // Every restored section says `database shared`: the rows are in
        // the section of a constraint outside this set.
        let bearer = sections.iter().find(|s| !database_is_shared(s));
        let mut r = Reader::new(bearer.ok_or_else(|| {
            let name = first.map(|n| n.to_string()).unwrap_or_default();
            mismatch(format!(
                "every section says `{DATABASE_SHARED}` and none carries the database \
                 (constraint `{name}` among them): restore the whole set from the whole file"
            ))
        })?);
        while let Some(line) = r.next() {
            match line.strip_prefix("rel ") {
                Some(rel_name) => apply_rel(&mut r, parts.db, rel_name)?,
                None if line.starts_with("node ") => break,
                None => {}
            }
        }
    }
    parts.engines.iter_mut().for_each(|e| e.warm(parts.db));
    if let Some((steps, time)) = cursor {
        *parts.steps = steps;
        *parts.last_time = time;
    }
    if let Some(d) = dispatch {
        *parts.dispatch = d;
    }
    Ok(set)
}

// Frozen-benchmark shim (see the block at the end of `set.rs`).
#[doc(hidden)]
pub use crate::set::restore_set_sharded;

/// The constraint a checkpoint section belongs to (its `constraint
/// <name>` line), if present.
pub fn section_constraint_name(text: &str) -> Option<&str> {
    text.lines()
        .find_map(|l| l.trim().strip_prefix("constraint "))
}

/// Whether `section` leaves the database to another section of its
/// checkpoint: the marker sits where the `rel` blocks would start.
fn database_is_shared(section: &str) -> bool {
    let mut lines = section.lines().map(str::trim);
    lines.find(|l| *l == DATABASE_SHARED || l.starts_with("rel ") || l.starts_with("node "))
        == Some(DATABASE_SHARED)
}

fn mismatch(message: impl ToString) -> CheckpointError {
    CheckpointError::Mismatch {
        message: message.to_string(),
    }
}

/// Loads the rows of the `rel <rel_name>` block just opened, through its
/// `endrel`, into `db`: each checked against the schema and collected into
/// one set, installed as one change.
fn apply_rel(r: &mut Reader<'_>, db: &mut Database, rel_name: &str) -> Result<(), CheckpointError> {
    let name = Symbol::intern(rel_name);
    let rel = db.relation_mut(name).map_err(mismatch)?;
    let (mut rows, mut names) = (TupleSet::clone(rel.rows()), Symbol::names());
    rows.reserve(r.block_len("\nendrel"));
    while r.entry("endrel", &mut names)? {
        if !r.nums.is_empty() {
            return Err(r.err("relation rows carry no numeric prefix"));
        }
        let row = r.values.iter().copied().collect();
        if let Err(why) = rel.schema().check(&row) {
            drop(names); // the message names an attribute
            return Err(mismatch(why));
        }
        if !rows.insert(row) {
            return Err(r.err("a row comes again in its `rel` block"));
        }
    }
    r.next()
        .ok_or_else(|| r.err("unterminated `rel` section"))?;
    rel.replace(rows);
    Ok(())
}

/// Restores one v1 section into an engine and, when `db` is given, its
/// `rel` blocks into the database; `shared` when the section says
/// [`DATABASE_SHARED`] in their place. Returns the section's step cursor
/// and the fleet's dispatch tallies.
fn restore_section(
    mut db: Option<&mut Database>,
    mut shared: bool,
    engine: &mut NodeEngine,
    text: &str,
) -> Result<(usize, DispatchStats), CheckpointError> {
    let mut r = Reader::new(text);
    if r.next() != Some("rtic-checkpoint v1") {
        return Err(r.err("missing `rtic-checkpoint v1` header"));
    }
    let name = r.expect_kv("constraint")?;
    let body = r.expect_kv("body")?;
    if engine.compiled.constraint.name.as_str() != name {
        return Err(mismatch(format!(
            "checkpoint is for constraint `{name}`, not `{}`",
            engine.compiled.constraint.name
        )));
    }
    if engine.compiled.body_text != body {
        return Err(mismatch(format!(
            "constraint `{name}`: its compiled body differs from the checkpointed one — \
             the definition of `{name}` changed since this checkpoint was written \
             (checkpointed body: `{body}`); restore with the original constraint file \
             or start a fresh run"
        )));
    }
    let last_time = match r.expect_kv("time")? {
        "none" => None,
        t => Some(TimePoint(r.parse(t, "bad time")?)),
    };
    let steps = r.expect_kv("steps")?;
    let steps = r.parse(steps, "bad steps")? as usize;
    let counters = r.expect_kv("dispatch")?.split_whitespace();
    let nums: Vec<u64> =
        (counters.map(|w| r.parse(w, "bad dispatch counter"))).collect::<Result<_, _>>()?;
    let [affected, skipped, quiescent_full, quarantined] = nums[..] else {
        return Err(r.err("`dispatch` carries exactly four counters"));
    };
    let dispatch = DispatchStats {
        affected,
        skipped,
        quiescent_full,
        quarantined,
    };

    (engine.last_time, r.time) = (last_time, last_time);
    // The index the next `node` block may start at: each comes once, in order.
    let mut next_node = 0;
    while let Some(line) = r.next() {
        match (line.strip_prefix("rel "), db.as_deref_mut()) {
            (Some(rel_name), Some(db)) => apply_rel(&mut r, db, rel_name)?,
            _ if shared && line == DATABASE_SHARED => shared = false,
            _ => match line.strip_prefix("node ") {
                Some(rest) => restore_node(
                    &mut r,
                    rest,
                    (&engine.compiled, &mut engine.states, &mut next_node),
                )?,
                None => return Err(r.err(format!("unexpected line `{line}`"))),
            },
        }
    }
    Ok((steps, dispatch))
}

/// Restores one `node <idx> <kind>` block (through its `endnode`) of
/// `compiled` into `states`, its name-order rows put back in rank order.
/// `rest` is the header line after the `node ` prefix; `next` the least
/// index the block may have.
fn restore_node(
    r: &mut Reader<'_>,
    rest: &str,
    (compiled, states, next): (&CompiledConstraint, &mut [NodeState], &mut usize),
) -> Result<(), CheckpointError> {
    let mut parts = rest.split_whitespace();
    let idx: usize = parts
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or_else(|| r.err("bad node index"))?;
    if idx < *next {
        return Err(r.err(format!("node {idx} comes again or out of order")));
    }
    *next = idx + 1;
    let word = parts.next().unwrap_or("");
    let (Some(node), Some(state)) = (compiled.nodes.get(idx), states.get_mut(idx)) else {
        return Err(mismatch(format!(
            "checkpoint has node {idx}, constraint does not"
        )));
    };
    if word != kind(node) {
        return Err(mismatch(format!(
            "node {idx} kind `{word}` does not match the constraint"
        )));
    }
    let keys = &compiled.node_keys[idx];
    match state {
        NodeState::Prev(p) if r.ahead.is_some_and(|(_, l)| l.starts_with("time ")) => {
            let t = r.expect_kv("time")?;
            let t = r.parse(t, "bad prev time")?;
            r.check("prev time", [t])?;
            let mut rows = Vec::with_capacity(r.block_len("\nendnode"));
            let mut names = Symbol::names();
            while r.entry("endnode", &mut names)? {
                if !r.nums.is_empty() {
                    return Err(r.err("prev rows carry no numeric prefix"));
                }
                rows.push(keys.ranked(&r.values));
            }
            if !p.restore(TimePoint(t), rows) {
                return Err(r.err("a row comes again in its node block"));
            }
        }
        NodeState::Prev(_) => {}
        NodeState::Runs(rel) => {
            let times = match word {
                "histf" => r.expect_times("times")?,
                "histi" => {
                    r.expect_kv("started")?;
                    let older = match r.expect_kv("older")? {
                        "none" => None,
                        t => Some(TimePoint(r.parse(t, "bad older time")?)),
                    };
                    let recent = r.expect_times("recent")?;
                    older.into_iter().chain(recent).collect()
                }
                _ => Vec::new(),
            };
            r.check("state times", times.iter().map(|t| t.0))?;
            rel.restore_times(times, r.time, r.block_len("\nendnode"));
            let (mut names, t) = (Symbol::names(), r.time.unwrap_or_default());
            while r.entry("endnode", &mut names)? {
                let (nums, key) = (&r.nums, keys.ranked(&r.values));
                let added = match word {
                    "histf" => {
                        if nums.len() % 2 != 0 {
                            return Err(r.err("runs come as start/end pairs"));
                        }
                        // start ≤ end < next start: ascending and disjoint.
                        let ordered =
                            |(i, w): (usize, &[u64])| w[0] < w[1] || i % 2 == 0 && w[0] == w[1];
                        let pairs = nums.chunks(2);
                        if !nums.windows(2).enumerate().all(ordered) {
                            let got = nums.iter().map(u64::to_string).collect::<Vec<_>>();
                            return Err(r.err(format!(
                                "histf runs must have start ≤ end, ascend and be disjoint (got {})",
                                got.join(" ")
                            )));
                        }
                        r.check("histf run ends", pairs.clone().map(|c| c[1]))?;
                        rel.restore(key, pairs.map(|c| (TimePoint(c[0]), TimePoint(c[1]))), t)
                    }
                    "histi" => {
                        let [end, _active] = nums[..] else {
                            return Err(r.err("histi entries are `end active | key`"));
                        };
                        r.check("histi run end", [end])?;
                        // The run began at the first state, which no window
                        // needs: it covers every state up to its end.
                        rel.restore(key, std::iter::once((TimePoint(0), TimePoint(end))), t)
                    }
                    _ => {
                        if nums.is_empty() {
                            return Err(r.err("window entry needs at least one timestamp"));
                        }
                        r.check("window stamps", nums.iter().copied())?;
                        // Restored stamps come back as point runs.
                        let runs = nums.iter().map(|&s| (TimePoint(s), TimePoint(s)));
                        rel.restore(key, runs, t)
                    }
                };
                if !added {
                    return Err(r.err("key comes again in its node block"));
                }
            }
        }
    }
    match r.next() {
        Some("endnode") => Ok(()),
        _ => Err(r.err("expected `endnode`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Checker;
    use rtic_relation::{tuple, Schema, Sort, Update};
    use rtic_temporal::parser::parse_constraint;

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            Catalog::new()
                .with("p", Schema::of(&[("x", Sort::Str)]))
                .unwrap()
                .with("q", Schema::of(&[("x", Sort::Str)]))
                .unwrap(),
        )
    }

    fn constraint() -> Constraint {
        parse_constraint(
            "deny d: p(x) && once[1,3] q(x) && !(q(x) since[0,5] p(x)) \
             && hist[0,2] p(x) || q(x) && prev p(x) && hist[1,*] p(x)",
        )
        .unwrap()
    }

    fn drive(c: &mut IncrementalChecker, from: u64, to: u64) -> Vec<crate::StepReport> {
        let mut out = Vec::new();
        for t in from..to {
            let u = match t % 4 {
                0 => Update::new()
                    .with_insert("p", tuple!["a"])
                    .with_insert("q", tuple!["b"]),
                1 => Update::new().with_insert("q", tuple!["a"]),
                2 => Update::new().with_delete("p", tuple!["a"]),
                _ => Update::new().with_delete("q", tuple!["a"]),
            };
            out.push(c.step(TimePoint(t), &u).unwrap());
        }
        out
    }

    #[test]
    fn save_restore_resumes_identically() {
        let cat = catalog();
        // Uninterrupted reference run.
        let mut reference = IncrementalChecker::new(constraint(), Arc::clone(&cat)).unwrap();
        let all = drive(&mut reference, 1, 40);
        // Interrupted run: checkpoint at t=20, restore, continue.
        let mut first = IncrementalChecker::new(constraint(), Arc::clone(&cat)).unwrap();
        let head = drive(&mut first, 1, 20);
        let text = save(&first);
        let mut resumed = restore(
            constraint(),
            Arc::clone(&cat),
            EncodingOptions::default(),
            &text,
        )
        .unwrap();
        assert_eq!(resumed.steps(), first.steps());
        let tail = drive(&mut resumed, 20, 40);
        let stitched: Vec<_> = head.into_iter().chain(tail).collect();
        assert_eq!(
            stitched, all,
            "restored checker diverged from uninterrupted run"
        );
    }

    /// A lone checker is a set of one: the same reports step for step, the
    /// same checkpoint text, and the same again after each is restored.
    #[test]
    fn checker_and_set_of_one_agree_across_save_restore() {
        let cat = catalog();
        let mut checker = IncrementalChecker::new(constraint(), Arc::clone(&cat)).unwrap();
        let mut set = ConstraintSet::new([constraint()], Arc::clone(&cat)).unwrap();
        let (head, set_head) = (drive(&mut checker, 1, 20), drive_set(&mut set, 1, 20));
        assert_eq!(head, set_head.concat());
        let text = save(&checker);
        assert_eq!(save_set(&set), [(constraint().name, text.clone())]);
        let options = EncodingOptions::default();
        let mut checker = restore(constraint(), Arc::clone(&cat), options, &text).unwrap();
        let mut set = restore_set([constraint()], Arc::clone(&cat), &[&text]).unwrap();
        let (tail, set_tail) = (drive(&mut checker, 20, 40), drive_set(&mut set, 20, 40));
        assert_eq!(tail, set_tail.concat());
        assert_eq!(save_set(&set), [(constraint().name, save(&checker))]);
    }

    #[test]
    fn checkpoint_is_stable_under_round_trip() {
        let cat = catalog();
        let mut c = IncrementalChecker::new(constraint(), Arc::clone(&cat)).unwrap();
        drive(&mut c, 1, 25);
        let t1 = save(&c);
        let restored = restore(
            constraint(),
            Arc::clone(&cat),
            EncodingOptions::default(),
            &t1,
        )
        .unwrap();
        assert_eq!(
            save(&restored),
            t1,
            "save∘restore is the identity on checkpoints"
        );
    }

    /// The reader numbers lines as it meets them, as `str::lines` does:
    /// blank lines count, `\r\n` endings and surrounding blanks are
    /// trimmed, and an error names its line in the text as given.
    #[test]
    fn blank_lines_and_crlf_endings_read_as_written() {
        let mut c = IncrementalChecker::new(constraint(), catalog()).unwrap();
        drive(&mut c, 1, 25);
        let text = save(&c);
        let spaced = text.replace('\n', "\r\n\n  ");
        let options = EncodingOptions::default();
        let restored = restore(constraint(), catalog(), options, &spaced).unwrap();
        assert_eq!(save(&restored), text);
        let bad = spaced.replacen("endnode", "bogus", 1);
        let line = bad[..bad.find("bogus").unwrap()].matches('\n').count() + 1;
        let err = restore(constraint(), catalog(), options, &bad).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Format { line: l, message } if *l == line && message.contains("missing `|`")),
            "{err}"
        );
    }

    #[test]
    fn fresh_checkpoint_restores() {
        let cat = catalog();
        let c = IncrementalChecker::new(constraint(), Arc::clone(&cat)).unwrap();
        let text = save(&c);
        let restored = restore(
            constraint(),
            Arc::clone(&cat),
            EncodingOptions::default(),
            &text,
        )
        .unwrap();
        assert_eq!(restored.steps(), 0);
    }

    #[test]
    fn wrong_constraint_is_rejected() {
        let cat = catalog();
        let mut c = IncrementalChecker::new(constraint(), Arc::clone(&cat)).unwrap();
        drive(&mut c, 1, 5);
        let text = save(&c);
        let other = parse_constraint("deny d: p(x) && q(x)").unwrap();
        let err = restore(other, Arc::clone(&cat), EncodingOptions::default(), &text).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }));
        let renamed = parse_constraint("deny other: p(x) && q(x)").unwrap();
        let err =
            restore(renamed, Arc::clone(&cat), EncodingOptions::default(), &text).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }));
    }

    fn fleet() -> Vec<Constraint> {
        vec![
            parse_constraint("deny both: p(x) && q(x)").unwrap(),
            parse_constraint("deny lingering: p(x) && once[2,4] q(x)").unwrap(),
            parse_constraint("deny steady: p(x) && hist[0,1] p(x)").unwrap(),
        ]
    }

    fn drive_set(
        set: &mut crate::ConstraintSet,
        from: u64,
        to: u64,
    ) -> Vec<Vec<crate::StepReport>> {
        let mut out = Vec::new();
        for t in from..to {
            let u = match t % 4 {
                0 => Update::new()
                    .with_insert("p", tuple!["a"])
                    .with_insert("q", tuple!["b"]),
                1 => Update::new().with_insert("q", tuple!["a"]),
                2 => Update::new().with_delete("p", tuple!["a"]),
                _ => Update::new().with_delete("q", tuple!["a"]),
            };
            out.push(set.step(TimePoint(t), &u).unwrap());
        }
        out
    }

    #[test]
    fn fleet_save_restore_resumes_identically() {
        let cat = catalog();
        let mut reference = crate::ConstraintSet::new(fleet(), Arc::clone(&cat)).unwrap();
        let all = drive_set(&mut reference, 1, 40);

        let mut head = crate::ConstraintSet::new(fleet(), Arc::clone(&cat)).unwrap();
        let mut got = drive_set(&mut head, 1, 20);
        let sections: Vec<String> = save_set(&head).into_iter().map(|(_, s)| s).collect();
        assert_eq!(sections.len(), 3);
        let mut resumed = restore_set(fleet(), Arc::clone(&cat), &sections).unwrap();
        assert_eq!(resumed.steps(), head.steps());
        assert_eq!(resumed.last_time(), head.last_time());
        got.extend(drive_set(&mut resumed, 20, 40));
        assert_eq!(got, all, "restored fleet diverged from uninterrupted run");
    }

    /// The first section holds the database and still restores alone;
    /// any other alone is a typed error, never a checker over no rows.
    #[test]
    fn restore_of_a_lone_database_shared_section_is_a_typed_error() {
        let cat = catalog();
        let mut set = crate::ConstraintSet::new(fleet(), Arc::clone(&cat)).unwrap();
        drive_set(&mut set, 1, 15);
        assert!(set.database().total_tuples() > 0);
        for (i, (sym, section)) in save_set(&set).into_iter().enumerate() {
            let c = fleet()
                .into_iter()
                .find(|c| c.name == sym)
                .expect("known constraint");
            let restored = restore(c, Arc::clone(&cat), EncodingOptions::default(), &section);
            if i == 0 {
                let checker = restored.unwrap_or_else(|e| panic!("section for {sym}: {e}"));
                assert_eq!(checker.steps(), set.steps());
                assert_eq!(checker.database(), set.database());
                continue;
            }
            let err = restored.expect_err("a shared database is not an empty one");
            assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("`{sym}`")) && msg.contains("restore the whole set"),
                "{msg}"
            );
        }
    }

    /// A section without its `dispatch` line (it differs between a fleet
    /// and the lone engines it is compared with).
    fn sans_dispatch(section: &str) -> String {
        let keep = |l: &&str| !l.starts_with("dispatch ");
        section
            .lines()
            .filter(keep)
            .flat_map(|l| [l, "\n"])
            .collect()
    }

    #[test]
    fn fleet_checkpoint_holds_the_database_once() {
        let cat = catalog();
        let marker = format!("{DATABASE_SHARED}\n");
        let mut database_block = None;
        for n in [1usize, 4, 16] {
            let constraints: Vec<Constraint> = (0..n)
                .map(|i| {
                    let (lo, hi) = (i % 3, i % 3 + i / 3 + 1);
                    parse_constraint(&format!("deny c{i}: p(x) && once[{lo},{hi}] q(x)")).unwrap()
                })
                .collect();
            let mut set = crate::ConstraintSet::new(constraints.clone(), Arc::clone(&cat)).unwrap();
            drive_set(&mut set, 1, 14);
            let sections: Vec<String> = save_set(&set).into_iter().map(|(_, s)| s).collect();
            assert_eq!(sections.len(), n);
            // The rows, written once: every relation has one `rel` line.
            let all = sections.concat();
            for rel in ["p", "q"] {
                let header = format!("rel {rel}");
                assert_eq!(
                    all.lines().filter(|l| *l == header).count(),
                    1,
                    "{n}: {rel}"
                );
            }
            let from = sections[0].find("rel ").unwrap();
            let to = sections[0].rfind("endrel\n").unwrap() + "endrel\n".len();
            let block = &sections[0][from..to];
            // … and the same rows whatever the number of engines.
            assert_eq!(database_block.get_or_insert(block.to_string()), block);
            // Every section is what its engine would write alone, with
            // the marker where the rows were: the bytes grow by headers
            // and node blocks only.
            let mut expected_bytes = block.len();
            for (i, (c, section)) in constraints.iter().cloned().zip(&sections).enumerate() {
                let mut lone = crate::ConstraintSet::new([c], Arc::clone(&cat)).unwrap();
                drive_set(&mut lone, 1, 14);
                let alone = save_set(&lone).remove(0).1;
                let want = match i {
                    0 => alone.clone(),
                    _ => alone.replacen(block, &marker, 1),
                };
                assert_eq!(sans_dispatch(section), sans_dispatch(&want), "{n}: c{i}");
                expected_bytes += sans_dispatch(&alone).len() - block.len();
            }
            let bytes: usize = sections.iter().map(|s| sans_dispatch(s).len()).sum();
            assert_eq!(bytes, expected_bytes + (n - 1) * marker.len(), "{n}");
            let resumed = restore_set(constraints, Arc::clone(&cat), &sections).unwrap();
            assert_eq!(resumed.database(), set.database(), "{n}");
        }
    }

    #[test]
    fn empty_database_fleet_round_trips() {
        let cat = catalog();
        let mut set = crate::ConstraintSet::new(fleet(), Arc::clone(&cat)).unwrap();
        for t in 1..4 {
            set.step(TimePoint(t), &Update::new()).unwrap();
        }
        let sections: Vec<String> = save_set(&set).into_iter().map(|(_, s)| s).collect();
        // No rows and no marker is the empty database; the marker is not.
        assert!(!sections.concat().contains("rel "));
        let shared = |s: &String| s.contains(DATABASE_SHARED);
        assert_eq!(
            sections.iter().map(shared).collect::<Vec<_>>(),
            [false, true, true]
        );
        let resumed = restore_set(fleet(), Arc::clone(&cat), &sections).unwrap();
        assert_eq!(resumed.database().total_tuples(), 0);
        assert_eq!(resumed.steps(), 3);
        let again: Vec<String> = save_set(&resumed).into_iter().map(|(_, s)| s).collect();
        assert_eq!(again, sections);
    }

    /// Any non-empty subset of the constraints resumes over the whole
    /// database, whichever section of the file carries it; with that
    /// section gone the rest is a typed error.
    #[test]
    fn every_subset_of_a_fleet_checkpoint_restores_the_full_database() {
        let cat = catalog();
        let mut set = crate::ConstraintSet::new(fleet(), Arc::clone(&cat)).unwrap();
        drive_set(&mut set, 1, 20);
        let sections: Vec<String> = save_set(&set).into_iter().map(|(_, s)| s).collect();
        for mask in 1u8..8 {
            let subset = |k: &usize| mask & (1 << k) != 0;
            let constraints: Vec<Constraint> =
                (0..3).filter(subset).map(|k| fleet().remove(k)).collect();
            let mut reference =
                crate::ConstraintSet::new(constraints.clone(), Arc::clone(&cat)).unwrap();
            let all = drive_set(&mut reference, 1, 40);
            let mut resumed = restore_set(constraints, Arc::clone(&cat), &sections).unwrap();
            assert_eq!(resumed.database(), set.database(), "mask {mask:03b}");
            assert_eq!(
                drive_set(&mut resumed, 20, 40),
                all[19..],
                "mask {mask:03b}"
            );
        }
        let err = restore_set(fleet().split_off(1), Arc::clone(&cat), &sections[1..]).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
        assert!(
            err.to_string().contains("none carries the database"),
            "{err}"
        );
    }

    #[test]
    fn fleet_restore_rejects_missing_and_renamed_sections() {
        let cat = catalog();
        let mut set = crate::ConstraintSet::new(fleet(), Arc::clone(&cat)).unwrap();
        drive_set(&mut set, 1, 8);
        let sections: Vec<String> = save_set(&set).into_iter().map(|(_, s)| s).collect();
        // A fleet with an extra constraint finds no section for it.
        let mut extra = fleet();
        extra.push(parse_constraint("deny extra: q(x) && prev q(x)").unwrap());
        let err = restore_set(extra, Arc::clone(&cat), &sections).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("no section for constraint `extra`"),
            "error must name the constraint: {msg}"
        );
    }

    #[test]
    fn fleet_restore_rejects_changed_body_naming_the_constraint() {
        let cat = catalog();
        let mut set = crate::ConstraintSet::new(fleet(), Arc::clone(&cat)).unwrap();
        drive_set(&mut set, 1, 8);
        let sections: Vec<String> = save_set(&set).into_iter().map(|(_, s)| s).collect();
        // Same name, different body: the operator edited the constraint.
        let mut changed = fleet();
        changed[1] = parse_constraint("deny lingering: p(x) && once[1,9] q(x)").unwrap();
        let err = restore_set(changed, Arc::clone(&cat), &sections).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, CheckpointError::Mismatch { .. }));
        assert!(
            msg.contains("`lingering`") && msg.contains("changed since this checkpoint"),
            "error must name the mismatched constraint and be actionable: {msg}"
        );
    }

    #[test]
    fn quarantined_engines_are_excluded_from_save_set() {
        let cat = catalog();
        let mut set = crate::ConstraintSet::new(fleet(), Arc::clone(&cat)).unwrap();
        set.arm_panic("lingering", 1);
        drive_set(&mut set, 1, 5);
        let saved = save_set(&set);
        let names: Vec<&str> = saved.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(names, vec!["both", "steady"]);
    }

    #[test]
    fn garbage_is_rejected_with_line_numbers() {
        let cat = catalog();
        let err = restore(
            constraint(),
            Arc::clone(&cat),
            EncodingOptions::default(),
            "not a checkpoint",
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::Format { .. }));
        let mut c = IncrementalChecker::new(constraint(), Arc::clone(&cat)).unwrap();
        drive(&mut c, 1, 5);
        let mut text = save(&c);
        text.push_str("mystery line\n");
        let err = restore(
            constraint(),
            Arc::clone(&cat),
            EncodingOptions::default(),
            &text,
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::Format { .. }));
    }

    #[test]
    fn dispatch_stats_survive_resume() {
        let cat = catalog();
        let mut reference = crate::ConstraintSet::new(fleet(), Arc::clone(&cat)).unwrap();
        drive_set(&mut reference, 1, 40);

        let mut head = crate::ConstraintSet::new(fleet(), Arc::clone(&cat)).unwrap();
        drive_set(&mut head, 1, 20);
        let sections: Vec<String> = save_set(&head).into_iter().map(|(_, s)| s).collect();
        let mut resumed = restore_set(fleet(), Arc::clone(&cat), &sections).unwrap();
        assert_eq!(
            resumed.dispatch_stats(),
            head.dispatch_stats(),
            "dispatch counters resume where they stopped, they do not restart at zero"
        );
        drive_set(&mut resumed, 20, 40);
        let d = resumed.dispatch_stats();
        assert_eq!(
            d,
            reference.dispatch_stats(),
            "stitched counters match an uninterrupted run"
        );
        assert_eq!(
            d.total(),
            39 * 3,
            "every healthy engine tallies exactly once per step across the resume"
        );
    }

    /// A `histf`/`histi` block must carry its `times`/`recent` line: with
    /// the line gone the first entry would be eaten in its place and the
    /// state times come back empty — a checker that misses violations.
    #[test]
    fn hist_blocks_require_their_times_line() {
        for (source, key) in [
            ("deny d: p(x) && hist[1,4] p(x)", "times"),
            ("deny d: p(x) && hist[1,*] p(x)", "recent"),
        ] {
            let c = parse_constraint(source).unwrap();
            let mut checker = IncrementalChecker::new(c.clone(), catalog()).unwrap();
            let both = Update::new()
                .with_insert("p", tuple!["a"])
                .with_insert("p", tuple!["b"]);
            checker.step(TimePoint(1), &both).unwrap();
            checker.step(TimePoint(2), &Update::new()).unwrap();
            let text = save(&checker);
            let at = text.lines().position(|l| l.starts_with(key)).unwrap();
            let with_line = |replacement: Option<&str>| {
                let mut lines: Vec<&str> = text.lines().collect();
                lines.splice(at..=at, replacement);
                restore(
                    c.clone(),
                    catalog(),
                    EncodingOptions::default(),
                    &lines.join("\n"),
                )
            };
            // The bare key is the empty list, as the writer emits it.
            assert!(with_line(Some(key)).is_ok());
            for bad in [None, Some(format!("{key} 1 x")), Some(format!("{key}s 1"))] {
                let err = with_line(bad.as_deref()).unwrap_err();
                assert!(
                    matches!(err, CheckpointError::Format { line, .. } if line == at + 1),
                    "{key} -> {bad:?}: {err}"
                );
            }
        }
    }

    /// A node's expiry index is rebuilt from the restored timestamps, so
    /// disordered or future ones are typed format errors naming their
    /// line — never a panic, never silently accepted.
    #[test]
    fn restored_timestamps_must_ascend_and_not_pass_the_time() {
        let bare = |body: &str, node: &str| {
            format!(
                "rtic-checkpoint v1\nconstraint d\nbody {body}\ntime 5\nsteps 2\n\
                 dispatch 2 0 0 0\n{node}endnode\n"
            )
        };
        let cases = [
            // Window stamps: ascending, none after `time`.
            (
                "p(x) && once[1,3] p(x)",
                "node 0 once\n3 2 | \"a\"\n",
                "must ascend",
            ),
            (
                "p(x) && once[1,3] p(x)",
                "node 0 once\n2 2 | \"a\"\n",
                "must ascend",
            ),
            (
                "p(x) && once[1,3] p(x)",
                "node 0 once\n1 2 9 | \"a\"\n",
                "after the",
            ),
            ("p(x) && once p(x)", "node 0 once\n6 | \"a\"\n", "after the"),
            // `histf`: start ≤ end < next start, ends by `time`; `times`
            // ascend.
            (
                "p(x) && hist[1,4] p(x)",
                "node 0 histf\ntimes 4 5\n3 2 | \"a\"\n",
                "disjoint",
            ),
            (
                "p(x) && hist[1,4] p(x)",
                "node 0 histf\ntimes 4 5\n1 3 3 4 | \"a\"\n",
                "disjoint",
            ),
            (
                "p(x) && hist[1,4] p(x)",
                "node 0 histf\ntimes 4 5\n4 5 2 3 | \"a\"\n",
                "disjoint",
            ),
            (
                "p(x) && hist[1,4] p(x)",
                "node 0 histf\ntimes 4 5\n4 7 | \"a\"\n",
                "after the",
            ),
            (
                "p(x) && hist[1,4] p(x)",
                "node 0 histf\ntimes 5 4\n",
                "must ascend",
            ),
            (
                "p(x) && hist[1,4] p(x)",
                "node 0 histf\ntimes 4 8\n",
                "after the",
            ),
            // `prev`: its state time no later than `time` (99 used to
            // panic the first step after resume).
            ("q(x) && prev p(x)", "node 0 prev\ntime 99\n", "after the"),
            // `histi`: `older` < `recent`, ascending, entry ends by `time`.
            (
                "p(x) && hist[1,*] p(x)",
                "node 0 histi\nstarted true\nolder 50\nrecent 9 4\n",
                "must ascend",
            ),
            (
                "p(x) && hist[1,*] p(x)",
                "node 0 histi\nstarted true\nolder 4\nrecent 4 5\n",
                "must ascend",
            ),
            (
                "p(x) && hist[1,*] p(x)",
                "node 0 histi\nstarted true\nolder 3\nrecent 4 9\n",
                "after the",
            ),
            (
                "p(x) && hist[1,*] p(x)",
                "node 0 histi\nstarted true\nolder 4\nrecent 5\n60 1 | \"a\"\n",
                "after the",
            ),
        ];
        for (body, node, why) in cases {
            let c = parse_constraint(&format!("deny d: {body}")).unwrap();
            let compiled = crate::CompiledConstraint::compile(c.clone(), catalog()).unwrap();
            let text = bare(&compiled.body.to_string(), node);
            let err = restore(c, catalog(), EncodingOptions::default(), &text).unwrap_err();
            let line = text.lines().count() - 1;
            assert!(
                matches!(&err, CheckpointError::Format { line: l, message } if *l == line && message.contains(why)),
                "{node:?}: {err}"
            );
        }
        // The valid neighbours restore.
        for (body, node) in [
            ("p(x) && once[1,3] p(x)", "node 0 once\n1 2 5 | \"a\"\n"),
            (
                "p(x) && hist[1,4] p(x)",
                "node 0 histf\ntimes 4 5\n1 2 4 5 | \"a\"\n",
            ),
            ("q(x) && prev p(x)", "node 0 prev\ntime 5\n| \"a\"\n"),
            (
                "p(x) && hist[1,*] p(x)",
                "node 0 histi\nstarted true\nolder 4\nrecent 5\n5 1 | \"a\"\n",
            ),
        ] {
            let c = parse_constraint(&format!("deny d: {body}")).unwrap();
            let compiled = crate::CompiledConstraint::compile(c.clone(), catalog()).unwrap();
            let text = bare(&compiled.body.to_string(), node);
            restore(c, catalog(), EncodingOptions::default(), &text).unwrap();
        }
    }

    /// A node block lists each key once, a `rel` block each row and a
    /// section each node block: a repeat is a format error naming its
    /// line, never a merge.
    #[test]
    fn repeated_keys_and_node_blocks_are_format_errors_naming_the_line() {
        let cases = [
            (
                "p(x) && once[1,3] p(x)",
                "node 0 once\n1 | \"a\"\n2 | \"a\"\n",
                9,
            ),
            (
                "p(x) && hist[1,4] p(x)",
                "node 0 histf\ntimes 4 5\n1 2 | \"a\"\n4 5 | \"a\"\n",
                10,
            ),
            (
                "p(x) && hist[1,*] p(x)",
                "node 0 histi\nstarted true\nolder 4\nrecent 5\n5 1 | \"a\"\n4 1 | \"a\"\n",
                12,
            ),
            (
                "q(x) && prev p(x)",
                "node 0 prev\ntime 5\n| \"a\"\n| \"a\"\n",
                10,
            ),
            (
                "p(x) && once[1,3] p(x)",
                "node 0 once\n1 | \"a\"\nendnode\nnode 0 once\n2 | \"b\"\n",
                10,
            ),
            (
                "p(x) && once[1,3] p(x)",
                "rel p\n| \"a\"\n| \"a\"\nendrel\nnode 0 once\n",
                9,
            ),
        ];
        for (body, node, line) in cases {
            let c = parse_constraint(&format!("deny d: {body}")).unwrap();
            let compiled = crate::CompiledConstraint::compile(c.clone(), catalog()).unwrap();
            let text = format!(
                "rtic-checkpoint v1\nconstraint d\nbody {}\ntime 5\nsteps 2\n\
                 dispatch 2 0 0 0\n{node}endnode\n",
                compiled.body
            );
            let err = restore(c, catalog(), EncodingOptions::default(), &text).unwrap_err();
            assert!(
                matches!(&err, CheckpointError::Format { line: l, message } if *l == line && message.contains("again")),
                "{node:?}: {err}"
            );
        }
    }

    /// Only the layout `save_set` writes restores. The retired ones — a
    /// section without its `dispatch` line, the deleted shard plane's
    /// markers, a later section with its own copy of the database — are
    /// format errors naming the line, as any malformed checkpoint is.
    #[test]
    fn retired_layouts_are_format_errors_naming_the_line() {
        let cat = catalog();
        let mut set = ConstraintSet::new(fleet(), Arc::clone(&cat)).unwrap();
        drive_set(&mut set, 1, 10);
        let sections: Vec<String> = save_set(&set).into_iter().map(|(_, s)| s).collect();
        restore_set(fleet(), Arc::clone(&cat), &sections).unwrap();
        let rows = {
            let (from, to) = (
                sections[0].find("rel ").unwrap(),
                sections[0].rfind("endrel\n"),
            );
            sections[0][from..to.unwrap() + "endrel\n".len()].to_string()
        };
        let edits = [
            (
                0,
                sans_dispatch(&sections[0]),
                "rel p\n",
                "expected `dispatch …`",
            ),
            (
                2,
                sections[2].replacen("node 0", "shardkey x\nphantom\nnode 0", 1),
                "shardkey x\n",
                "unexpected line `shardkey x`",
            ),
            (
                1,
                sections[1].replacen(&format!("{DATABASE_SHARED}\n"), &rows, 1),
                "rel p\n",
                "unexpected line `rel p`",
            ),
        ];
        for (i, edited, at, why) in edits {
            let line = edited[..edited.find(at).unwrap()].matches('\n').count() + 1;
            let mut retired = sections.clone();
            retired[i] = edited;
            let err = restore_set(fleet(), Arc::clone(&cat), &retired).unwrap_err();
            assert!(
                matches!(&err, CheckpointError::Format { line: l, message } if *l == line && message.contains(why)),
                "{why}: {err}"
            );
        }
    }

    /// `save ∘ restore` is the identity for every node kind at every cut —
    /// a general window cut mid-run (its stamps come back as point runs),
    /// a key re-entering after a gap wider than every bound — and the
    /// restored checker goes on saving what the uninterrupted one saves.
    #[test]
    fn dump_restore_dump_is_the_identity_for_every_kind() {
        // `p(a)` holds over 1–4, leaves at 5 and re-enters at 11; `p(b)`
        // flickers; `q` holds throughout.
        let update = |t: u64| {
            let mut u = match t {
                1 => Update::new()
                    .with_insert("q", tuple!["a"])
                    .with_insert("q", tuple!["b"]),
                5 => Update::new().with_delete("p", tuple!["a"]),
                _ => Update::new(),
            };
            if t == 1 || t == 11 {
                u.insert("p", tuple!["a"]);
            }
            if t.is_multiple_of(3) {
                u.insert("p", tuple!["b"]);
            } else if t % 3 == 1 && t > 1 {
                u.delete("p", tuple!["b"]);
            }
            u
        };
        let times = [1u64, 2, 3, 4, 5, 11, 12, 13, 15, 16];
        for src in [
            "deny d: q(x) && prev[1,3] p(x)",
            "deny d: q(x) && once[2,4] p(x)",
            "deny d: q(x) && once[0,3] p(x)",
            "deny d: q(x) && once[2,*] p(x)",
            "deny d: q(x) && (q(x) since[1,4] p(x))",
            "deny d: q(x) && hist[1,3] p(x)",
            "deny d: q(x) && hist[2,*] p(x)",
        ] {
            let c = parse_constraint(src).unwrap();
            let mut reference = IncrementalChecker::new(c.clone(), catalog()).unwrap();
            for (i, &t) in times.iter().enumerate() {
                reference.step(TimePoint(t), &update(t)).unwrap();
                let text = save(&reference);
                let options = EncodingOptions::default();
                let mut resumed = restore(c.clone(), catalog(), options, &text).unwrap();
                assert_eq!(save(&resumed), text, "{src}: cut at {t}");
                let mut twin = reference.clone();
                for &u in &times[i + 1..] {
                    let got = resumed.step(TimePoint(u), &update(u)).unwrap();
                    assert_eq!(got, twin.step(TimePoint(u), &update(u)).unwrap());
                    // A restored engine holds no cached violations, so its
                    // first step is a full one where the twin may sleep.
                    assert_eq!(
                        sans_dispatch(&save(&resumed)),
                        sans_dispatch(&save(&twin)),
                        "{src}: cut at {t}, at {u}"
                    );
                }
            }
        }
    }
}
