//! The four workloads: their data, their set-up commands and their seeded
//! request streams. Everything the program under test sees is the request
//! text generated here; the same `--seed` gives byte-identical streams.

use crate::rng::{Rng, Zipf};

/// Rows of `acct` (and of `acct0`/`acct1`); every update keeps this count.
pub const ROWS: usize = 1024;
/// Rows of `dept`, and the number of distinct `grade` values.
pub const GRADES: usize = 16;
/// Update-one-row commits `read-asof` adds during set-up: the history is
/// eight times the 128-state materialization cache.
pub const ASOF_VERSIONS: usize = 1024;
/// Audit points `read-asof` revisits; they fit the 128-state cache.
pub const HOT_AUDIT_POINTS: usize = 32;
/// How far apart the two states of an audit diff may be.
pub const MAX_AUDIT_DISTANCE: u64 = 16;
const ACCT_SCHEME: &str = "(id: int, owner: str, grade: int, bal: int)";
const DEPT_SCHEME: &str = "(dgrade: int, label: str)";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CommitOnly,
    ReadCurrent,
    ReadAsof,
    Mixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CommitOnly,
        Workload::ReadCurrent,
        Workload::ReadAsof,
        Workload::Mixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CommitOnly => "commit-only",
            Workload::ReadCurrent => "read-current",
            Workload::ReadAsof => "read-asof",
            Workload::Mixed => "mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a request asks for; decides which checks apply to its reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// An update-one-row commit.
    Commit,
    /// A lookup of one `id`, now or in the past: exactly one row.
    Point,
    /// All rows of one grade, now or in the past.
    Group,
    /// The equi-join of `acct` and `dept`.
    Join,
    /// The difference of two past states.
    AuditDiff,
}

impl Class {
    pub fn is_commit(self) -> bool {
        self == Class::Commit
    }
}

pub struct Request {
    /// The frame payload, `EXEC <command>`.
    pub text: String,
    pub class: Class,
}

/// What a session's requests are drawn from.
#[derive(Clone)]
enum Mix {
    /// Update-one-row commits to one relation.
    Commits { relation: &'static str },
    /// 60 % point lookup, 30 % group, 10 % equi-join, all on the current state.
    ReadCurrent,
    /// 60 % as-of point lookup, 20 % as-of group, 20 % audit diff. The time is
    /// one of the hot audit points in 30 % of requests and uniform over the
    /// history otherwise, so the state cache is neither useless nor sufficient.
    ReadAsof {
        first_tx: u64,
        /// How many transaction numbers a request's time is drawn from.
        span: u64,
        hot: Vec<u64>,
    },
}

/// One session's request stream: a pure function of the seed, drawn as the
/// session goes and never repeating. (A stored stream would have to repeat,
/// and on `read-asof` every repeated expression registers with the view memo,
/// which halved the read rate from the moment the stream wrapped; one long
/// enough not to repeat was most of the process's resident memory.)
#[derive(Clone)]
pub struct Stream {
    mix: Mix,
    keys: Keys,
    seed: u64,
    label: u64,
}

impl Stream {
    /// Whether the session commits (or reads).
    pub fn commits(&self) -> bool {
        matches!(self.mix, Mix::Commits { .. })
    }

    /// The stream from its first request; it does not end.
    pub fn requests(&self) -> Requests<'_> {
        Requests {
            stream: self,
            rng: Rng::new(self.seed, self.label),
        }
    }
}

pub struct Requests<'a> {
    stream: &'a Stream,
    rng: Rng,
}

impl Requests<'_> {
    pub fn next_request(&mut self) -> Request {
        let (keys, rng) = (&self.stream.keys, &mut self.rng);
        match &self.stream.mix {
            Mix::Commits { relation } => exec(update_one_row(relation, keys, rng), Class::Commit),
            Mix::ReadCurrent => match rng.below(10) {
                0..=5 => exec(
                    format!("display(select[id = {}](rho(acct, inf)))", keys.id(rng)),
                    Class::Point,
                ),
                6..=8 => exec(
                    format!(
                        "display(project[id, bal](select[grade = {}](rho(acct, inf))))",
                        keys.grade(rng)
                    ),
                    Class::Group,
                ),
                _ => exec(
                    "display(project[id, label](select[grade = dgrade](rho(acct, inf) times rho(dept, inf))))"
                        .to_string(),
                    Class::Join,
                ),
            },
            Mix::ReadAsof { first_tx, span, hot } => {
                let tx = if rng.below(10) < 3 {
                    hot[rng.below(hot.len() as u64) as usize]
                } else {
                    first_tx + rng.below(*span)
                };
                match rng.below(10) {
                    0..=5 => exec(
                        format!("display(select[id = {}](rho(acct, {tx})))", keys.id(rng)),
                        Class::Point,
                    ),
                    6..=7 => exec(
                        format!(
                            "display(project[id, bal](select[grade = {}](rho(acct, {tx}))))",
                            keys.grade(rng)
                        ),
                        Class::Group,
                    ),
                    _ => {
                        let later = tx + 1 + rng.below(MAX_AUDIT_DISTANCE);
                        exec(
                            format!("display(rho(acct, {later}) minus rho(acct, {tx}))"),
                            Class::AuditDiff,
                        )
                    }
                }
            }
        }
    }
}

impl Iterator for Requests<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        Some(self.next_request())
    }
}

/// One workload's inputs for one seed.
pub struct Plan {
    /// Commands that load the database (no `EXEC` prefix).
    pub setup: Vec<String>,
    /// One request stream per closed-loop session.
    pub sessions: [Stream; 2],
}

fn acct_row(id: usize, grade: u64, bal: u64) -> String {
    format!("({id}, \"o{id}\", {grade}, {bal})")
}

/// The initial rows. Every grade starts with the same number of rows, so the
/// cost of a group query does not depend on which grade the seed makes hot.
fn acct_literal(rng: &mut Rng) -> String {
    let rows: Vec<String> = (0..ROWS)
        .map(|id| acct_row(id, (id % GRADES) as u64, rng.below(10_000)))
        .collect();
    format!("{{{ACCT_SCHEME}: {}}}", rows.join(", "))
}

fn dept_literal() -> String {
    let rows: Vec<String> = (0..GRADES).map(|g| format!("({g}, \"d{g}\")")).collect();
    format!("{{{DEPT_SCHEME}: {}}}", rows.join(", "))
}

/// Skewed choices of an account id and of a grade. The ranks are permuted by
/// the seed, so the hot ids are not simply the smallest ones.
#[derive(Clone)]
struct Keys {
    id_zipf: Zipf,
    id_of_rank: Vec<usize>,
    grade_zipf: Zipf,
    grade_of_rank: Vec<usize>,
}

impl Keys {
    fn new(rng: &mut Rng) -> Keys {
        Keys {
            id_zipf: Zipf::new(ROWS),
            id_of_rank: rng.permutation(ROWS),
            grade_zipf: Zipf::new(GRADES),
            grade_of_rank: rng.permutation(GRADES),
        }
    }

    fn id(&self, rng: &mut Rng) -> usize {
        self.id_of_rank[self.id_zipf.sample(rng)]
    }

    fn grade(&self, rng: &mut Rng) -> usize {
        self.grade_of_rank[self.grade_zipf.sample(rng)]
    }
}

/// `modify_state` that replaces the row of one id: the relation keeps its
/// cardinality, so a run is stationary however many commits it makes.
fn update_one_row(relation: &str, keys: &Keys, rng: &mut Rng) -> String {
    let id = keys.id(rng);
    let row = acct_row(id, rng.below(GRADES as u64), rng.below(10_000));
    format!(
        "modify_state({relation}, (rho({relation}, inf) minus select[id = {id}](rho({relation}, inf))) \
         union {{{ACCT_SCHEME}: {row}}})"
    )
}

fn exec(command: String, class: Class) -> Request {
    Request {
        text: format!("EXEC {command}"),
        class,
    }
}

/// Generates a workload's set-up commands and request streams from a seed.
pub fn generate(workload: Workload, seed: u64) -> Plan {
    // One generator for the data and one per session, so a change to one
    // session's mix does not shift the other's stream.
    let mut data = Rng::new(seed, 1);
    let keys = Keys::new(&mut data);
    let stream = |mix: &Mix, label: u64| Stream {
        mix: mix.clone(),
        keys: keys.clone(),
        seed,
        label,
    };

    let mut setup = Vec::new();
    let mixes = if workload == Workload::CommitOnly {
        for relation in ["acct0", "acct1"] {
            setup.push(format!("define_relation({relation}, rollback)"));
            setup.push(format!(
                "modify_state({relation}, {})",
                acct_literal(&mut data)
            ));
        }
        [
            Mix::Commits { relation: "acct0" },
            Mix::Commits { relation: "acct1" },
        ]
    } else {
        setup.push("define_relation(acct, rollback)".to_string());
        setup.push("define_relation(dept, rollback)".to_string());
        setup.push(format!("modify_state(dept, {})", dept_literal()));
        setup.push(format!("modify_state(acct, {})", acct_literal(&mut data)));
        // Every set-up command is one transaction, counted from 1.
        let first_tx = setup.len() as u64;
        match workload {
            Workload::ReadAsof => {
                for _ in 0..ASOF_VERSIONS {
                    setup.push(update_one_row("acct", &keys, &mut data));
                }
                let span = setup.len() as u64 - MAX_AUDIT_DISTANCE - first_tx + 1;
                let hot = data
                    .permutation(span as usize)
                    .into_iter()
                    .take(HOT_AUDIT_POINTS)
                    .map(|offset| first_tx + offset as u64)
                    .collect();
                let mix = Mix::ReadAsof {
                    first_tx,
                    span,
                    hot,
                };
                [mix.clone(), mix]
            }
            Workload::Mixed => [Mix::Commits { relation: "acct" }, Mix::ReadCurrent],
            _ => [Mix::ReadCurrent, Mix::ReadCurrent],
        }
    };
    Plan {
        setup,
        sessions: [stream(&mixes[0], 2), stream(&mixes[1], 3)],
    }
}

/// FNV-1a over the first `count` requests of every session: printed with each
/// result, so that two runs can be seen to have sent the same requests.
pub fn stream_digest(plan: &Plan, count: usize) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for session in &plan.sessions {
        for request in session.requests().take(count) {
            for &byte in request.text.as_bytes().iter().chain(b"\n") {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_streams_and_another_seed_does_not() {
        for workload in Workload::ALL {
            let a = stream_digest(&generate(workload, 0x5EED_1987), 10_000);
            let b = stream_digest(&generate(workload, 0x5EED_1987), 10_000);
            let c = stream_digest(&generate(workload, 0x5EED_1988), 10_000);
            assert_eq!(a, b, "{}", workload.name());
            assert_ne!(a, c, "{}", workload.name());
        }
    }

    #[test]
    fn read_mixes_have_the_stated_shares() {
        let share = |stream: &Stream, class: Class| {
            stream
                .requests()
                .take(20_000)
                .filter(|r| r.class == class)
                .count() as f64
                / 20_000.0
        };
        let current = generate(Workload::ReadCurrent, 1);
        assert!((share(&current.sessions[0], Class::Point) - 0.6).abs() < 0.02);
        assert!((share(&current.sessions[0], Class::Group) - 0.3).abs() < 0.02);
        assert!((share(&current.sessions[0], Class::Join) - 0.1).abs() < 0.02);
        let asof = generate(Workload::ReadAsof, 1);
        assert!((share(&asof.sessions[1], Class::Point) - 0.6).abs() < 0.02);
        assert!((share(&asof.sessions[1], Class::AuditDiff) - 0.2).abs() < 0.02);
    }

    #[test]
    fn asof_times_stay_inside_the_history() {
        let plan = generate(Workload::ReadAsof, 9);
        assert_eq!(plan.setup.len(), 4 + ASOF_VERSIONS);
        for request in plan.sessions.iter().flat_map(|s| s.requests().take(20_000)) {
            for part in request.text.split("rho(acct, ").skip(1) {
                let tx: u64 = part[..part.find(')').unwrap()].parse().unwrap();
                assert!(
                    (4..=plan.setup.len() as u64).contains(&tx),
                    "{}",
                    request.text
                );
            }
        }
    }

    #[test]
    fn mixed_writes_and_reads_share_one_relation() {
        let plan = generate(Workload::Mixed, 2);
        let [writer, reader] = &plan.sessions;
        assert!(writer.commits() && !reader.commits());
        assert!(writer
            .requests()
            .take(100)
            .all(|r| r.class.is_commit() && r.text.starts_with("EXEC modify_state(acct, ")));
        assert!(reader.requests().take(100).all(|r| !r.class.is_commit()));
    }

    #[test]
    fn a_stream_restarts_from_its_first_request() {
        let plan = generate(Workload::CommitOnly, 5);
        let texts = |n| -> Vec<String> {
            plan.sessions[1]
                .requests()
                .take(n)
                .map(|r| r.text)
                .collect()
        };
        assert_eq!(texts(50), texts(50));
        assert_ne!(
            texts(1),
            plan.sessions[0]
                .requests()
                .take(1)
                .map(|r| r.text)
                .collect::<Vec<_>>()
        );
    }
}
