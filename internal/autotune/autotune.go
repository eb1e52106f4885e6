// Package autotune is the adaptive strategy selector: given a loop's
// profile (persistent, keyed by call site) and a cheap online probe of
// its first iterations, it picks the execution engine, DOALL schedule,
// strip size and respeculation window that the orchestrator would
// otherwise need the caller to hand-tune.
//
// The paper's position (Section 7) is that the parallelization
// decision should be automatic — "they should almost always be
// applied" — and the related speculative-parallelization literature
// (Rauchwerger's synergistic static/dynamic/speculative framework, the
// taskloop DOACROSS studies) consistently finds that *which* strategy
// runs dominates how fast any single engine is.  This package closes
// that gap in three stages:
//
//  1. probe: the orchestrator executes the first iterations
//     sequentially, which is free (they had to run anyway, and the
//     sequential prefix is exactly the committed state every
//     speculative engine starts from), and times them: the warm
//     per-iteration cost, the tracked accesses per iteration, an
//     early-termination signal, and a trip-count sample for
//     costmodel.BranchStats;
//  2. decide: Decide maps the profile plus deterministic loop facts
//     (remaining iterations, processor count, whether speculation is
//     required) to the engine Table 1 calls for, and DecideTimed
//     (planner.go) keeps that engine only if the Section 7 model, fed
//     with the probe's estimate and this host's calibrated unit costs,
//     predicts it beats sequential execution.  Both are pure functions;
//     the profile's smoothing and a hysteresis band keep the wall
//     clock's jitter out of the choice;
//  3. retune: a Tuner (tuner.go) re-decides strip size and engine
//     mid-run from the internal/obs counters the execution is already
//     accumulating and from the strips' measured durations — violation
//     storms shrink the window and eventually fall back to sequential,
//     as does a run whose strips cost more per iteration than the
//     sequential estimate; clean streaks grow the window and promote
//     the run to the pipelined engine.
package autotune

import (
	"encoding/json"
	"fmt"
	"sync"

	"whilepar/internal/sched"
	"whilepar/internal/sig"
)

// Engine names one of the execution engines the selector chooses among.
type Engine int

const (
	// Sequential runs the remainder on the calling goroutine — the
	// right call when the remaining work cannot amortize even one
	// barrier, or when the profile says speculation keeps failing.
	Sequential Engine = iota
	// DOALL runs the remainder as a plain scheduled DOALL — no
	// checkpoint, stamps or PD test — legal only when the orchestrator
	// proved speculation unnecessary.
	DOALL
	// Speculative runs strip-mined speculation (checkpoint + stamps +
	// PD test per strip) with the Tuner adjusting strip size per strip.
	Speculative
	// Pipelined is Speculative with strip k+1's execution overlapping
	// strip k's PD test — the fastest engine on clean loops, the most
	// wasteful one under frequent misspeculation.
	Pipelined
)

// String names the engine for reports and rendered profiles.
func (e Engine) String() string {
	switch e {
	case Sequential:
		return "sequential"
	case DOALL:
		return "DOALL"
	case Speculative:
		return "stripped speculation"
	case Pipelined:
		return "pipelined strip speculation"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// Plan is one concrete strategy choice.
type Plan struct {
	// Engine to run the post-probe remainder under.
	Engine Engine
	// Schedule for every DOALL the engine dispatches.
	Schedule sched.Schedule
	// Strip is the initial strip size for the speculative engines
	// (0 for Sequential and DOALL, which have no strips).
	Strip int
	// Window is the number of strips in flight: 1 for the stripped
	// engine, 2 once the pipeline overlaps execution with validation.
	Window int
	// Tier is the validation tier granted to the speculative engine: 0
	// keeps the full element-wise shadow machinery, 1 validates strips
	// by hash-signature intersection (internal/sig), 2 trusts clean
	// streaks and runs shadow-free with sampled audits.  The values
	// mirror speculate.Tier; Decide only grants a tier above 0 on the
	// Speculative engine with the Stealing schedule and a block-aligned
	// strip, so worker footprints land on signature-block boundaries.
	Tier int
	// ExpectedSpeedup is the attainable speedup Sp_at DecideTimed
	// predicted for the engine it considered — below 1 (inside the
	// hysteresis band: about 1) when that made it choose Sequential —
	// Reason says how it was arrived at, and SeqNsPerIter is the
	// sequential estimate it rests on (the probe's, smoothed by the
	// profile).  All zero from Decide, which predicts nothing.
	ExpectedSpeedup float64
	Reason          string
	SeqNsPerIter    float64
}

// ProbeResult is what the orchestrator learned from running the first
// strip sequentially.
type ProbeResult struct {
	// Iters actually executed (may stop short of the probe size on
	// early termination).
	Iters int
	// Ns is the probe's wall-clock cost; Ns/Iters estimates the body.
	Ns int64
	// Done reports that the loop terminated inside the probe.
	Done bool
}

// ProbeSize sizes the sequential probe: big enough to sample the body
// cost and give BranchStats a real trip fraction (at least 16
// iterations, at least two per processor), small enough never to eat a
// loop that would have profited from parallel execution (at most a
// quarter of the iteration space).
func ProbeSize(total, procs int) int {
	p := 2 * procs
	if p < 16 {
		p = 16
	}
	if q := total / 4; p > q {
		p = q
	}
	if p < 1 {
		p = 1
	}
	// Snap to the signature block grain when the quarter bound leaves
	// room: the strip engines start exactly where the probe stops, so a
	// 64-aligned probe keeps every later strip (already sized in
	// sigBlock*procs multiples by AlignStrip) on block boundaries — the
	// precondition for the tiered validation's false-positive-free
	// stealing chunks.  Loops too short to afford a 64-iteration probe
	// never earn a tier, so nothing is lost below the bound.
	if q := total / 4; q >= sigBlock {
		p = (p + sigBlock - 1) / sigBlock * sigBlock
		if p > q {
			p = q / sigBlock * sigBlock
		}
	}
	return p
}

// Profile is the persistent per-call-site record the selector learns
// from.  All rate fields are exponentially weighted moving averages
// (alpha ewmaAlpha), so one anomalous run cannot wipe the history and
// a genuinely changed workload converges within a few runs.  Profiles
// are JSON-serializable so services can persist a ProfileStore across
// processes.
type Profile struct {
	// Key identifies the loop (Options.Key, or the derived call site).
	Key string `json:"key"`
	// Runs recorded into this profile.
	Runs int `json:"runs"`
	// NsPerIter is the measured sequential cost of one iteration: the
	// timed probe's warm estimate.
	NsPerIter float64 `json:"ns_per_iter"`
	// SpecNsPerIter is the measured cost of one iteration under the
	// speculative engines, at tier LastTier, everything included —
	// checkpoints, validation, rewinds and re-executions.  Zero until a
	// speculative run has been timed; from then on it moves from the
	// cost model's prediction toward the measurements, run by run — and,
	// once it no longer promises a win, in one step up to the cost of a
	// run the Tuner demoted.  Its ratio to NsPerIter is the speedup
	// speculation attains here, and corrects the model (DecideTimed).
	SpecNsPerIter float64 `json:"spec_ns_per_iter"`
	// TripFraction is valid iterations over the iteration-space bound:
	// near 1 means the loop almost always runs to its bound (a
	// balanced, steal-friendly space), low values mean early exits.
	TripFraction float64 `json:"trip_fraction"`
	// ViolationRate is the fraction of speculative strips that failed
	// validation and re-ran sequentially.  Overshoot past a QUIT is
	// not a violation — only PD failures and exceptions count.
	ViolationRate float64 `json:"violation_rate"`
	// LastEngine is the engine the previous run ended on.
	LastEngine Engine `json:"last_engine"`
	// CleanStreak counts consecutive speculative runs that committed
	// every strip without a violation or audit failure.  It is the
	// promotion currency for the validation tiers: a violation does not
	// just reset it, it quarters it, so a loop that alternates clean
	// and dirty never accumulates enough credit to shed its shadows.
	CleanStreak int `json:"clean_streak"`
	// LastTier is the validation tier the previous run was granted.
	LastTier int `json:"last_tier"`
	// LastViolated reports that the previous speculative run saw a real
	// violation (PD failure or Tier-2 audit failure).  One dirty run
	// demotes the next run to Tier 0 outright, regardless of the rates.
	LastViolated bool `json:"last_violated"`
}

// Sample is one finished run's contribution to a profile.
type Sample struct {
	// Valid iterations and the iteration-space bound.
	Valid, Total int
	// Ns over NsIters is the probed body cost (0 iters = no estimate).
	Ns      int64
	NsIters int
	// SpecNs is the wall time the speculative engine took to commit
	// SpecIters iterations (0 iters = nothing to learn from), and
	// SpecPredicted the ns/iter the planner had predicted for it (0 =
	// no prediction): the prior a first measurement is folded into, so
	// that it takes several slow runs, not one, to overturn the model.
	SpecNs        int64
	SpecIters     int
	SpecPredicted float64
	// Strips and SeqStrips from the speculative engines (both 0 when
	// the run never speculated).
	Strips, SeqStrips int
	// Engine the run ended on.
	Engine Engine
	// Tier the run was granted, and whether it saw a real violation
	// (Violated: a PD-test failure demoted a strip or the whole run) or
	// a Tier-2 audit failure (AuditFailed).  Tier-1 false positives are
	// neither — a hash collision costs one re-run, not trust.
	Tier        int
	Violated    bool
	AuditFailed bool
}

// ewmaAlpha weights the newest sample; 0.3 means ~3-4 runs to converge
// after a workload change.
const ewmaAlpha = 0.3

func ewma(old, sample float64, first bool) float64 {
	if first {
		return sample
	}
	return old + ewmaAlpha*(sample-old)
}

// foldSeq folds a probe's estimate into the remembered sequential cost
// of an iteration: the EWMA, with the sample counted as at most twice
// what is remembered.  The host can slow a probe down but never speed
// it up, so a jump is likelier a burst than a changed loop — and a loop
// that did change gets there within a few runs anyway.
func foldSeq(old, sample float64) float64 {
	if old <= 0 {
		return sample
	}
	if sample > 2*old {
		sample = 2 * old
	}
	return ewma(old, sample, false)
}

// apply folds one sample into the profile.
func (p *Profile) apply(s Sample) {
	first := p.Runs == 0
	p.Runs++
	if s.NsIters > 0 && s.Ns > 0 {
		p.NsPerIter = foldSeq(p.NsPerIter, float64(s.Ns)/float64(s.NsIters))
	}
	if s.SpecIters > 0 && s.SpecNs > 0 {
		old := p.SpecNsPerIter
		if old == 0 {
			old = s.SpecPredicted
		}
		sample := float64(s.SpecNs) / float64(s.SpecIters)
		p.SpecNsPerIter = ewma(old, sample, old == 0)
		// A speculative run that ended Sequential is one the Tuner gave
		// up on, and the next decision faces the promotion bar.  While
		// what is remembered still clears it, speculation gets another
		// run (several slow ones overturn the model, not one).  Once it
		// does not, believe the demoted run in full: creeping toward it
		// would stop just under the bar, with no band left, and a few
		// per cent of drift in the next probes would promote the loop
		// again — for another demoted run.
		if s.Engine == Sequential && sample > p.SpecNsPerIter && p.NsPerIter <= (1+Hysteresis)*p.SpecNsPerIter {
			p.SpecNsPerIter = sample
		}
	}
	if s.Total > 0 {
		p.TripFraction = ewma(p.TripFraction, float64(s.Valid)/float64(s.Total), first)
	}
	// A run that never speculated says nothing about the violation
	// rate; in particular a Sequential run chosen *because* the rate
	// was high must not decay it back toward zero (that would flap
	// between sequential and a doomed re-speculation every other run).
	if s.Strips > 0 {
		p.ViolationRate = ewma(p.ViolationRate, float64(s.SeqStrips)/float64(s.Strips), first)
		// Streak credit moves the same direction but on a harsher
		// curve: quartering on a violation means a loop must re-earn
		// most of its history before the tiers trust it again, while
		// the EWMA above would forgive in two or three clean runs.
		if s.Violated || s.AuditFailed {
			p.CleanStreak /= 4
			p.LastViolated = true
		} else if s.SeqStrips == 0 {
			p.CleanStreak++
			p.LastViolated = false
		} else {
			// Sequential strips without a violation flag are
			// exceptions or cancellations: not a breach of trust, but
			// not a clean run either.  Hold the streak.
			p.LastViolated = false
		}
		p.LastTier = s.Tier
	}
	p.LastEngine = s.Engine
}

// StoreSchemaVersion is the version stamped into a ProfileStore's JSON
// payload.  Bump it whenever Profile gains a field whose zero value
// would mislead the selector when decoded from an older payload —
// CleanStreak is exactly such a field: an old profile with a converged
// violation rate but a zero (really: unrecorded) streak is fine, but
// the reverse, a future field defaulting to "trusted", would not be.
// A payload with a different (or missing) version is discarded rather
// than migrated: profiles are a cache of cheap-to-relearn history, and
// re-probing for a few runs is strictly safer than guessing what an
// old field meant.  Version 3: NsPerIter became the timed probe's warm
// estimate and SpecNsPerIter joined it; the planner compares the two.
const StoreSchemaVersion = 3

// storePayload is the persisted envelope around the profile map.
type storePayload struct {
	Version  int                `json:"version"`
	Profiles map[string]Profile `json:"profiles"`
}

// ProfileStore is a concurrency-safe collection of Profiles.  The zero
// value is not usable; call NewProfileStore.  Marshal/Unmarshal round-
// trip the store as a versioned JSON envelope, so services can persist
// learned profiles across processes and ship them between hosts.
type ProfileStore struct {
	mu       sync.Mutex
	profiles map[string]Profile
	table    *Table
}

// NewProfileStore returns an empty store.
func NewProfileStore() *ProfileStore {
	return &ProfileStore{profiles: make(map[string]Profile)}
}

// std is the process-wide store used when Options supply none: zero-
// config callers still accumulate history across calls from the same
// call site.
var std = NewProfileStore()

// Default returns the process-wide store.
func Default() *ProfileStore { return std }

// Table returns the unit costs the planner prices this store's loops
// with: the host's calibrated table (see HostTable for speculative)
// unless SetTable injected another.
func (s *ProfileStore) Table(speculative bool) *Table {
	s.mu.Lock()
	t := s.table
	s.mu.Unlock()
	if t == nil {
		t = HostTable(speculative)
	}
	return t
}

// SetTable injects the table the planner prices this store's loops
// with, in place of the host's.  It exists for tests and benchmarks
// that need the choice not to depend on the host they run on (see
// Table.Off).  The table is not part of the persisted payload.
func (s *ProfileStore) SetTable(t *Table) {
	s.mu.Lock()
	s.table = t
	s.mu.Unlock()
}

// Lookup returns the profile recorded under key.
func (s *ProfileStore) Lookup(key string) (Profile, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.profiles[key]
	return p, ok
}

// Record folds one run's sample into the profile under key and returns
// the updated profile.
func (s *ProfileStore) Record(key string, smp Sample) Profile {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.profiles[key]
	p.Key = key
	p.apply(smp)
	s.profiles[key] = p
	return p
}

// Len reports the number of recorded profiles.
func (s *ProfileStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.profiles)
}

// MarshalJSON renders the store as a versioned envelope holding a JSON
// object keyed by profile key.
func (s *ProfileStore) MarshalJSON() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return json.Marshal(storePayload{Version: StoreSchemaVersion, Profiles: s.profiles})
}

// UnmarshalJSON replaces the store's contents with the decoded
// profiles.  A syntactically valid payload carrying a different schema
// version — including the pre-envelope bare-map format, which decodes
// with version 0 — is discarded silently: the store comes back empty
// and the selector relearns, which is the correct reading of stale
// history.  Only malformed JSON is an error.
func (s *ProfileStore) UnmarshalJSON(data []byte) error {
	var p storePayload
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("autotune: bad profile store payload: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.Version != StoreSchemaVersion || p.Profiles == nil {
		s.profiles = make(map[string]Profile)
		return nil
	}
	s.profiles = p.Profiles
	return nil
}

// Decide maps a profile plus deterministic loop facts to a Plan: the
// Table 1 dispatch.  It says which engine the loop's shape and history
// call for, not whether that engine pays — DecideTimed puts the Section
// 7 verdict on top — and is what paths without a timed probe use.
//
// Every input is reproducible — iteration counts, processor count, the
// classifier's speculation verdict, and the (persisted) profile — so
// two identical invocations choose identical strategies.
//
// The rules, in order:
//
//   - one processor runs sequentially, always: every parallel engine
//     adds dispatch, checkpoint and validation cost that a single
//     processor can never win back;
//   - a remainder too small to amortize one parallel dispatch runs
//     sequentially (under 2 iterations per processor and under 64
//     total — below either bound the barrier costs more than the
//     work);
//   - a profile that has watched speculation fail on at least half its
//     strips falls back to sequential outright, the Section 7 stance
//     inverted by evidence (and kept sticky by Profile.apply, which
//     never decays the violation rate on sequential runs);
//   - a loop the classifier cleared of speculation runs as a plain
//     DOALL;
//   - otherwise strip-mined speculation, promoted to the pipelined
//     engine when the profile shows a clean history (almost no
//     violations, nearly full trips — the pipeline's overlap only
//     pays when strips commit).
//
// The schedule follows the profile's trip shape: a loop that reliably
// runs to its bound gets the Stealing schedule (contiguous blocks,
// contention only on imbalance); anything else keeps Dynamic
// self-scheduling, whose eager issue wastes the least work near an
// early exit.
func Decide(prof Profile, haveProfile bool, remaining, procs int, needsSpec bool) Plan {
	if procs <= 1 {
		return Plan{Engine: Sequential}
	}
	if remaining < 2*procs && remaining < 64 {
		return Plan{Engine: Sequential}
	}
	if haveProfile && prof.Runs >= 1 && prof.ViolationRate >= 0.5 && needsSpec {
		return Plan{Engine: Sequential}
	}
	schedule := sched.Dynamic
	if haveProfile && prof.Runs >= 2 && prof.TripFraction >= 0.95 {
		schedule = sched.Stealing
	}
	if !needsSpec {
		return Plan{Engine: DOALL, Schedule: schedule}
	}
	engine := Speculative
	window := 1
	tier := DecideTier(prof, haveProfile, schedule)
	if tier > 0 {
		// A tiered run stays on the stripped engine: the pipelined
		// engine only speaks the element-wise protocol, and shedding
		// the shadows beats hiding them behind the next strip.
		strip := AlignStrip(InitialStrip(prof, haveProfile, remaining, procs), procs)
		return Plan{Engine: Speculative, Schedule: schedule, Strip: strip, Window: window, Tier: tier}
	}
	if haveProfile && prof.Runs >= 1 && prof.ViolationRate <= 0.05 && prof.TripFraction >= 0.9 {
		engine = Pipelined
		window = 2
	}
	return Plan{Engine: engine, Schedule: schedule, Strip: InitialStrip(prof, haveProfile, remaining, procs), Window: window}
}

// Tier promotion thresholds, in consecutive clean speculative runs.
// Three clean runs buy the signature tier (a false positive there costs
// one strip re-run, so the bar is low); eight buy the trusted tier,
// whose audit misses cost a whole-range sequential re-execution and so
// demand a history long enough that the EWMA rates have converged.
const (
	Tier1Streak = 3
	Tier2Streak = 8
)

// sigBlock is the signature block grain the tiered engines hash at;
// strips and worker chunks aligned to it never alias across workers on
// contiguous schedules.
const sigBlock = 1 << sig.DefaultBlockShift

// DecideTier maps the profile to the validation tier a speculative run
// may start at.  The gate is deliberately conservative and, like
// Decide, fully deterministic:
//
//   - any tier above 0 requires an established clean profile (no
//     violation on the last run, a violation rate within the pipeline
//     threshold) *and* the Stealing schedule — contiguous per-worker
//     blocks are what keeps the block-granular signatures free of
//     false sharing; Dynamic's interleaved chunks would flag every
//     dense strip;
//   - Tier 1 (signatures) needs Tier1Streak consecutive clean runs;
//   - Tier 2 (shadow-free with sampled audits) needs Tier2Streak and a
//     near-full trip fraction, because its recovery path on a missed
//     exit or failed audit re-runs the whole range sequentially.
func DecideTier(prof Profile, haveProfile bool, schedule sched.Schedule) int {
	if !haveProfile || schedule != sched.Stealing {
		return 0
	}
	if prof.LastViolated || prof.ViolationRate > 0.05 {
		return 0
	}
	switch {
	case prof.CleanStreak >= Tier2Streak && prof.TripFraction >= 0.95:
		return 2
	case prof.CleanStreak >= Tier1Streak:
		return 1
	}
	return 0
}

// AlignStrip rounds a strip size up to a multiple of sigBlock*procs, so
// that under the Stealing schedule every worker's contiguous chunk
// starts and ends on a signature block boundary — adjacent workers then
// share no block, and a clean strip hashes clean instead of paying a
// false-positive re-run on every seam.  The orchestrator applies the
// same rounding when the caller pins a tier by hand.
func AlignStrip(s, procs int) int {
	if procs < 1 {
		procs = 1
	}
	grain := sigBlock * procs
	return (s + grain - 1) / grain * grain
}

// InitialStrip sizes the first speculative strip: the stripped engines'
// usual remaining/16 (clamped so every processor gets at least four
// iterations), quartered when the profile reports a violation-prone
// loop — a failed strip forfeits its whole parallel attempt, so prior
// failures argue for smaller bets.  The Tuner regrows it on clean
// streaks.
func InitialStrip(prof Profile, haveProfile bool, remaining, procs int) int {
	if procs < 1 {
		procs = 1
	}
	s := remaining / 16
	if min := 4 * procs; s < min {
		s = min
	}
	if s > remaining {
		s = remaining
	}
	if haveProfile && prof.ViolationRate > 0.25 {
		s /= 4
		if s < procs {
			s = procs
		}
	}
	if s < 1 {
		s = 1
	}
	return s
}
