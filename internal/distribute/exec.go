package distribute

import (
	"context"
	"fmt"

	"whilepar/internal/doacross"
	"whilepar/internal/loopir"
	"whilepar/internal/mem"
	"whilepar/internal/sched"
)

// Impl binds statement IDs to their per-iteration actions.  The action
// receives the iteration context (through which managed-memory accesses
// flow) and the iteration index.
type Impl map[int]func(it *loopir.Iter, i int)

// ExecOptions configures plan execution.
type ExecOptions struct {
	// Procs is the number of virtual processors.
	Procs int
	// Tracker interposes on managed-memory accesses (nil = direct).
	Tracker mem.Tracker
}

// Execute runs a distributed/fused plan over the iteration space [0, n):
// blocks execute in order with a join between them;
//
//   - parallel, prefix and PD-test blocks run as DOALLs (the PD-test
//     block's speculation protocol is the caller's: pass a tracker wired
//     to internal/speculate);
//   - sequential blocks run in iteration order on one processor —
//     except that a sequential block marked Doacross is *pipelined*
//     against its immediate successor block: iteration i runs the
//     sequential statements (chained i-1 -> i), posts, and then runs the
//     successor block's statements for the same iteration, overlapping
//     them with the chain.
//
// Every statement in every block must have an implementation.
func Execute(blocks []Block, n int, opt ExecOptions, impl Impl) error {
	procs := opt.Procs
	if procs < 1 {
		procs = 1
	}
	for _, b := range blocks {
		for _, s := range b.Stmts {
			if impl[s.ID] == nil {
				return fmt.Errorf("distribute: statement %d (%s) has no implementation", s.ID, s.Name)
			}
		}
	}

	slots := loopir.NewIterSlots(procs)
	runStmts := func(b Block, it *loopir.Iter, i int) {
		for _, s := range b.Stmts {
			impl[s.ID](it, i)
		}
	}

	for bi := 0; bi < len(blocks); bi++ {
		b := blocks[bi]
		switch {
		case b.Kind == SequentialBlock && b.Doacross && bi+1 < len(blocks):
			succ := blocks[bi+1]
			bi++ // the successor is consumed by the pipeline
			doacross.Run(context.Background(), n, doacross.Config{Procs: procs}, func(i, vpn int, s *doacross.Sync) doacross.Control {
				s.Wait(i, i-1)
				it := slots.At(vpn, i, opt.Tracker)
				runStmts(b, it, i)
				s.Post(i)
				runStmts(succ, it, i)
				return doacross.Continue
			})
		case b.Kind == SequentialBlock:
			for i := 0; i < n; i++ {
				runStmts(b, slots.At(0, i, opt.Tracker), i)
			}
		default: // ParallelBlock, PrefixBlock, PDTestBlock
			sched.DOALL(n, sched.Options{Procs: procs}, func(i, vpn int) sched.Control {
				runStmts(b, slots.At(vpn, i, opt.Tracker), i)
				return sched.Continue
			})
		}
	}
	return nil
}

// ExecuteSequential is the reference executor: every block, every
// iteration, in program order on one processor.  The semantic oracle
// Execute is validated against.
func ExecuteSequential(blocks []Block, n int, impl Impl) error {
	for _, b := range blocks {
		for _, s := range b.Stmts {
			if impl[s.ID] == nil {
				return fmt.Errorf("distribute: statement %d (%s) has no implementation", s.ID, s.Name)
			}
		}
	}
	slot := loopir.NewIterSlots(1)
	for _, b := range blocks {
		for i := 0; i < n; i++ {
			it := slot.At(0, i, nil)
			for _, s := range b.Stmts {
				impl[s.ID](it, i)
			}
		}
	}
	return nil
}
