package main

import (
	"fmt"
	"io"
	"strings"
)

// The five workloads.  The names are fixed: later issues cite them.
const (
	wDoallHeavy = "doall-heavy"
	wSpecLight  = "spec-light"
	wSpecRewind = "spec-rewind"
	wListWalk   = "list-walk"
	wServeMix   = "serve-mix"
)

// workloadDefs lists the workloads in run order with the one-line reason
// each exists (mirrored into BENCHMARK.json).
var workloadDefs = []struct{ name, why string }{
	{wDoallHeavy, "Independent heavy-body induction loop with no Shared/Tested arrays: only sched/induction dispatch plus the body run, so a tracking gain must show nothing here."},
	{wSpecLight, "Clean speculative loop with a light body: stamping, shadow marks, checkpoint and verdicts are most of the wall time, the regime where speculation loses to sequential."},
	{wSpecRewind, "Heavy-body speculative loop with 4 seeded flow dependences: exercises undo, partial commit, restore and sequential re-execution instead of stamp-and-commit."},
	{wListWalk, "Linked-list traversal (general recurrence, RI terminator): genrec dispatch and pointer hops bound the speedup; no backups, no shadows."},
	{wServeMix, "Closed-loop HTTP clients submitting short .while and native jobs to an in-process whilepard: the only path through frontend, serve and the shared-pool tickets."},
}

var (
	allWorkloads    = []string{wDoallHeavy, wSpecLight, wSpecRewind, wListWalk, wServeMix}
	facadeWorkloads = []string{wDoallHeavy, wSpecLight, wSpecRewind, wListWalk}
	intWorkloads    = []string{wDoallHeavy, wSpecLight, wSpecRewind} // induction dispatcher
	specWorkloads   = []string{wSpecLight, wSpecRewind}              // Shared and Tested arrays
	listWorkloads   = []string{wListWalk}
	serveWorkloads  = []string{wServeMix}
)

// metricDef declares one metric.  Every end-to-end metric is emitted on
// every workload (the builder's contract); a per-layer metric is emitted
// as 0 on a workload that does not reach its layer, which is the bypass
// prediction made checkable.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which the metric may
	// worsen before a change is rejected (end-to-end only).
	bound float64
	// on lists the workloads that reach the metric's layer.
	on []string
	// exact marks counts that repeat exactly for a given seed.
	exact bool
	// moves is the end-to-end metric (and workload) the layer metric is
	// predicted to move; for end-to-end metrics, the definition.
	moves string
}

// endToEnd is what a user of whilepar or whilepard sees.  run_ms_p50 is the
// default variant (zero-valued Strategy and Validation, private profile
// store); on serve-mix an op is one job, timed by the client from sending
// the POST to reading the terminal stream line.
//
// The bounds are what the two-CPU virtual machine this was sized on can
// resolve: its speed drifts by 10-15% over minutes whatever the benchmark
// does, so any wall-clock figure carries 0.25; only the allocation volume
// repeats closely enough for less.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, on: allWorkloads,
		moves: "median wall time of one set-up: input generation, oracle runs, server boot, warm-up ops"},
	{name: "run_ms_p50", unit: "ms", better: "lower", bound: 0.25, on: allWorkloads,
		moves: "median wall time of one op, default variant, over the fastest of every 5 consecutive rounds (on serve-mix a round's figure is its phase's median job)"},
	{name: "pinned_ms_p50", unit: "ms", better: "lower", bound: 0.25, on: allWorkloads,
		moves: "median wall time as run_ms_p50, pinned variant (the engine the workload is named for, full validation)"},
	{name: "seq_ms_p50", unit: "ms", better: "lower", bound: 0.25, on: allWorkloads,
		moves: "median wall time as run_ms_p50, sequential strategy through the same entry point (the baseline; catches facade overhead and host drift)"},
	{name: "speedup_vs_seq", unit: "ratio", better: "higher", bound: 0.25, on: allWorkloads,
		moves: "seq_ms_p50 / run_ms_p50, the paper's attained speedup at procs"},
	{name: "iters_per_s", unit: "1/s", better: "higher", bound: 0.25, on: allWorkloads,
		moves: "valid iterations of one default op / run_ms_p50; on serve-mix of one default phase / the phases' wall time sampled like run_ms_p50, so it is throughput"},
	{name: "alloc_kb_per_op", unit: "KiB", better: "lower", bound: 0.10, on: allWorkloads,
		moves: "runtime.MemStats.TotalAlloc delta / ops, default variant (per job on serve-mix)"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25, on: allWorkloads,
		moves: "VmHWM of the workload's process at its end"},
}

// perLayer comes from the traced run: the benchmark's own stopwatch around
// public calls of each layer, or counts read from Report, the Metrics
// snapshot and serve.Status.
var perLayer = []metricDef{
	// the whole path, over every single op: the tail and the mean-based
	// throughput read up to 1.8x worse in one run than in the next on the
	// hosts this was sized on, so they do not gate (see README.md)
	{name: "whole.run_ms_p90", unit: "ms", better: "lower", on: allWorkloads, moves: "the tail behind run_ms_p50: 90th percentile over every plain default op (job) of the traced window"},
	{name: "whole.iters_per_s_mean", unit: "1/s", better: "higher", on: allWorkloads, moves: "the mean behind iters_per_s: valid iterations of those ops / their wall time, so tails count"},
	// body (user code)
	{name: "body.ns_per_iter_seq", unit: "ns", better: "lower", on: facadeWorkloads, moves: "reference only"},
	{name: "body.calls_per_op", unit: "count", better: "lower", on: facadeWorkloads, moves: "reference only (pinned variant)"},
	{name: "body.busy_ns_per_op", unit: "ns", better: "lower", on: facadeWorkloads, moves: "reference only (summed over workers, pinned variant)"},
	{name: "body.useful_ratio", unit: "ratio", better: "higher", on: facadeWorkloads, moves: "pinned_ms_p50 on spec-rewind (wasted re-execution) and doall-heavy (overshoot)"},
	// loopir / mem
	{name: "loopir.iter_untracked_ns", unit: "ns", better: "lower", on: allWorkloads, moves: "floor for every tracked figure"},
	// sched
	{name: "sched.pool_roundtrip_ns", unit: "ns", better: "lower", on: allWorkloads, moves: "run_ms_p50 on spec-light (one per strip)"},
	{name: "sched.shared_ticket_ns", unit: "ns", better: "lower", on: serveWorkloads, moves: "run_ms_p50, iters_per_s on serve-mix"},
	{name: "sched.doall_dispatch_ns_per_iter_dynamic", unit: "ns", better: "lower", on: intWorkloads, moves: "run_ms_p50, speedup_vs_seq on doall-heavy"},
	{name: "sched.doall_dispatch_ns_per_iter_static", unit: "ns", better: "lower", on: intWorkloads, moves: "none by default (not selected by Auto)"},
	{name: "sched.doall_dispatch_ns_per_iter_guided", unit: "ns", better: "lower", on: intWorkloads, moves: "none by default (not selected by Auto)"},
	{name: "sched.doall_dispatch_ns_per_iter_stealing", unit: "ns", better: "lower", on: intWorkloads, moves: "run_ms_p50 on loops whose trip fraction reaches 0.95"},
	{name: "sched.imbalance_ratio", unit: "ratio", better: "lower", on: facadeWorkloads, moves: "speedup_vs_seq on doall-heavy (bounded above by procs / imbalance)"},
	{name: "sched.steal_chunks_per_op", unit: "count", better: "lower", on: facadeWorkloads, moves: "run_ms_p50 (default variant)"},
	{name: "sched.pool_dispatches_per_op", unit: "count", better: "lower", exact: true, on: facadeWorkloads, moves: "run_ms_p50 on spec-light (default variant); 0 on list-walk"},
	// induction
	{name: "induction.run_ns_per_iter_ind1", unit: "ns", better: "lower", on: intWorkloads, moves: "pinned_ms_p50 on doall-heavy"},
	{name: "induction.run_ns_per_iter_ind2", unit: "ns", better: "lower", on: intWorkloads, moves: "none by default (Induction-1 is the default method)"},
	{name: "induction.overshoot_per_op", unit: "count", better: "lower", on: intWorkloads, moves: "pinned_ms_p50 on doall-heavy"},
	// tsmem
	{name: "tsmem.checkpoint_ns_per_word", unit: "ns", better: "lower", on: specWorkloads, moves: "pinned_ms_p50, run_ms_p50, alloc_kb_per_op on spec-light"},
	{name: "tsmem.stamp_store_ns", unit: "ns", better: "lower", on: specWorkloads, moves: "pinned_ms_p50, run_ms_p50 on spec-light; nothing on doall-heavy, list-walk"},
	{name: "tsmem.stamp_store_range_ns_per_elem", unit: "ns", better: "lower", on: specWorkloads, moves: "none (no workload body uses StoreRange)"},
	{name: "tsmem.commit_ns", unit: "ns", better: "lower", on: specWorkloads, moves: "run_ms_p50 on spec-light (one per strip)"},
	{name: "tsmem.rearm_ns_per_word", unit: "ns", better: "lower", on: specWorkloads, moves: "run_ms_p50 on spec-light (one per strip)"},
	{name: "tsmem.undo_ns_per_word", unit: "ns", better: "lower", on: specWorkloads, moves: "pinned_ms_p50 on spec-light (overshoot) and spec-rewind"},
	{name: "tsmem.partial_commit_ns_per_word", unit: "ns", better: "lower", on: specWorkloads, moves: "pinned_ms_p50 on spec-rewind"},
	{name: "tsmem.restore_all_ns_per_word", unit: "ns", better: "lower", on: specWorkloads, moves: "run_ms_p50 on spec-rewind (failed strips)"},
	{name: "tsmem.stamped_stores_per_op", unit: "count", better: "lower", on: facadeWorkloads, moves: "pinned_ms_p50; 0 on doall-heavy, list-walk"},
	{name: "tsmem.checkpoint_words_per_op", unit: "count", better: "lower", exact: true, on: facadeWorkloads, moves: "pinned_ms_p50, alloc_kb_per_op; 0 on doall-heavy, list-walk"},
	{name: "tsmem.undone_words_per_op", unit: "count", better: "lower", on: facadeWorkloads, moves: "pinned_ms_p50 on spec-rewind; 0 on doall-heavy, list-walk"},
	// pdtest
	{name: "pdtest.mark_load_ns", unit: "ns", better: "lower", on: specWorkloads, moves: "pinned_ms_p50, run_ms_p50 on spec-light"},
	{name: "pdtest.mark_store_ns", unit: "ns", better: "lower", on: specWorkloads, moves: "pinned_ms_p50, run_ms_p50 on spec-light"},
	{name: "pdtest.analyze_ns_per_elem", unit: "ns", better: "lower", on: specWorkloads, moves: "pinned_ms_p50, run_ms_p50 on spec-light"},
	{name: "pdtest.tests_per_op", unit: "count", better: "lower", exact: true, on: facadeWorkloads, moves: "pinned_ms_p50; 0 on doall-heavy, list-walk"},
	{name: "pdtest.fail_ratio", unit: "ratio", better: "lower", exact: true, on: facadeWorkloads, moves: "pinned_ms_p50 on spec-rewind (> 0 there, 0 on spec-light)"},
	// sig
	{name: "sig.mark_ns", unit: "ns", better: "lower", on: specWorkloads, moves: "run_ms_p50 on spec-light once Auto earns Tier 1"},
	{name: "sig.conflict_ns", unit: "ns", better: "lower", on: specWorkloads, moves: "run_ms_p50 on spec-light once Auto earns Tier 1"},
	{name: "sig.false_positive_ratio", unit: "ratio", better: "lower", on: facadeWorkloads, moves: "run_ms_p50 on spec-light; must stay 0 on spec-rewind"},
	// speculate
	{name: "speculate.strip_self_ns", unit: "ns", better: "lower", on: specWorkloads, moves: "run_ms_p50 on spec-light"},
	{name: "speculate.par_ns_per_op", unit: "ns", better: "lower", on: specWorkloads, moves: "run_ms_p50 on spec-light"},
	{name: "speculate.seq_rerun_ns_per_op", unit: "ns", better: "lower", on: specWorkloads, moves: "run_ms_p50 on spec-rewind"},
	{name: "speculate.strips_per_op", unit: "count", better: "lower", exact: true, on: facadeWorkloads, moves: "run_ms_p50; 0 on doall-heavy, list-walk"},
	{name: "speculate.seq_strips_per_op", unit: "count", better: "lower", exact: true, on: facadeWorkloads, moves: "run_ms_p50 on spec-rewind"},
	{name: "speculate.respec_rounds_per_op", unit: "count", better: "lower", exact: true, on: facadeWorkloads, moves: "pinned_ms_p50 on spec-rewind"},
	{name: "speculate.prefix_committed_per_op", unit: "count", better: "higher", exact: true, on: facadeWorkloads, moves: "pinned_ms_p50 on spec-rewind"},
	{name: "speculate.pipelined_vs_stripped", unit: "ratio", better: "lower", on: specWorkloads, moves: "run_ms_p50 on loops Auto promotes to the pipeline"},
	// autotune
	{name: "autotune.probe_ns", unit: "ns", better: "lower", on: facadeWorkloads, moves: "run_ms_p50"},
	{name: "autotune.probe_iters", unit: "count", better: "lower", exact: true, on: facadeWorkloads, moves: "run_ms_p50"},
	{name: "autotune.decide_ns", unit: "ns", better: "lower", on: intWorkloads, moves: "run_ms_p50 (negligible unless it grows)"},
	{name: "autotune.retunes_per_op", unit: "count", better: "lower", exact: true, on: facadeWorkloads, moves: "run_ms_p50"},
	{name: "autotune.tier_reached", unit: "count", better: "higher", exact: true, on: facadeWorkloads, moves: "run_ms_p50 on spec-light"},
	{name: "autotune.default_vs_best", unit: "ratio", better: "higher", on: facadeWorkloads, moves: "run_ms_p50, speedup_vs_seq: min(seq, pinned) / default, 1.0 means the planner matched the better pinned choice"},
	// core (+ facade)
	{name: "core.overhead_ns", unit: "ns", better: "lower", on: facadeWorkloads, moves: "pinned_ms_p50: facade op minus the hand-composed replay of the same engine"},
	{name: "core.validate_ns", unit: "ns", better: "lower", on: facadeWorkloads, moves: "pinned_ms_p50 (negligible unless it grows)"},
	// genrec
	{name: "genrec.general1_ns_per_node", unit: "ns", better: "lower", on: listWorkloads, moves: "none by default (General-3 is the default method)"},
	{name: "genrec.general2_ns_per_node", unit: "ns", better: "lower", on: listWorkloads, moves: "none by default (General-3 is the default method)"},
	{name: "genrec.general3_ns_per_node", unit: "ns", better: "lower", on: listWorkloads, moves: "run_ms_p50, speedup_vs_seq on list-walk"},
	{name: "genrec.executed_per_op", unit: "count", better: "lower", exact: true, on: listWorkloads, moves: "run_ms_p50 on list-walk"},
	{name: "genrec.overshoot_per_op", unit: "count", better: "lower", exact: true, on: listWorkloads, moves: "run_ms_p50 on list-walk (0 with an RI terminator)"},
	// frontend
	{name: "frontend.parse_ns", unit: "ns", better: "lower", on: serveWorkloads, moves: "run_ms_p50, iters_per_s on serve-mix"},
	{name: "frontend.analyze_ns", unit: "ns", better: "lower", on: serveWorkloads, moves: "run_ms_p50, iters_per_s on serve-mix"},
	{name: "frontend.compile_ns", unit: "ns", better: "lower", on: serveWorkloads, moves: "run_ms_p50, iters_per_s on serve-mix"},
	{name: "frontend.interp_ns_per_iter", unit: "ns", better: "lower", on: serveWorkloads, moves: "run_ms_p50, iters_per_s on serve-mix"},
	{name: "frontend.interp_tax_ratio", unit: "ratio", better: "lower", on: serveWorkloads, moves: "run_ms_p50 on serve-mix: interpreted / hand-written Go loop"},
	// serve
	{name: "serve.submit_ns", unit: "ns", better: "lower", on: serveWorkloads, moves: "run_ms_p50 on serve-mix"},
	{name: "serve.queue_wait_ms_p50", unit: "ms", better: "lower", on: serveWorkloads, moves: "run_ms_p50 on serve-mix"},
	{name: "serve.queue_wait_ms_p95", unit: "ms", better: "lower", on: serveWorkloads, moves: "whole.run_ms_p90 on serve-mix"},
	{name: "serve.run_ms_p50", unit: "ms", better: "lower", on: serveWorkloads, moves: "run_ms_p50 on serve-mix"},
	{name: "serve.http_overhead_ms_p50", unit: "ms", better: "lower", on: serveWorkloads, moves: "run_ms_p50 on serve-mix"},
	{name: "serve.submit_done_ms_p99", unit: "ms", better: "lower", on: serveWorkloads, moves: "tail beyond whole.run_ms_p90 on serve-mix"},
	{name: "serve.jobs_per_s", unit: "1/s", better: "higher", on: serveWorkloads, moves: "iters_per_s on serve-mix (same window, counted in jobs)"},
	{name: "serve.status_bytes_per_job", unit: "B", better: "lower", on: serveWorkloads, moves: "run_ms_p50 on serve-mix"},
	{name: "serve.rejected_per_run", unit: "count", better: "lower", exact: true, on: serveWorkloads, moves: "failed share on serve-mix"},
	// obs
	{name: "obs.metrics_overhead_ratio", unit: "ratio", better: "lower", on: facadeWorkloads, moves: "run_ms_p50 on serve-mix, where every job carries a Metrics; nothing on the timed facade ops"},
	// the benchmark itself
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower", on: facadeWorkloads, moves: "none: traced / untraced pinned op"},
	{name: "bench.layers_sum_ratio", unit: "ratio", better: "higher", on: facadeWorkloads, moves: "none: layer self times with the workers' body time rebuilt from unit costs x counts, over the replay's root span"},
}

func reaches(d metricDef, workload string) bool {
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}

// writeList prints every metric with its unit, direction, bound and the
// workloads it is defined on.
func writeList(w io.Writer) {
	fmt.Fprintln(w, "end-to-end (emitted with -trace 0 on every workload):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-18s %-6s %-7s bound %.2f  %s\n", d.name, d.unit, d.better, d.bound, d.moves)
	}
	fmt.Fprintln(w, "per-layer (emitted with -trace 1; 0 on a workload that bypasses the layer):")
	for _, d := range perLayer {
		exact := ""
		if d.exact {
			exact = " [repeats exactly]"
		}
		fmt.Fprintf(w, "  %-42s %-6s %-7s on %s%s\n      moves: %s\n", d.name, d.unit, d.better, strings.Join(d.on, ","), exact, d.moves)
	}
}
