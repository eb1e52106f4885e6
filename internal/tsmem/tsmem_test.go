package tsmem

import (
	"testing"
	"testing/quick"

	"whilepar/internal/mem"
	"whilepar/internal/sched"
)

func TestUndoRestoresOvershotWritesOnly(t *testing.T) {
	a := mem.NewArray("A", 20)
	for i := range a.Data {
		a.Data[i] = -1
	}
	m := New(a)
	m.Checkpoint()
	tr := m.Tracker()
	// Iterations 0..9 each write A[i] = i; valid = 6.
	for i := 0; i < 10; i++ {
		tr.Store(a, i, float64(i), i, 0)
	}
	restored, err := m.Undo(6)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 4 {
		t.Fatalf("restored %d locations, want 4", restored)
	}
	for i := 0; i < 6; i++ {
		if a.Data[i] != float64(i) {
			t.Errorf("valid write A[%d] lost: %v", i, a.Data[i])
		}
	}
	for i := 6; i < 10; i++ {
		if a.Data[i] != -1 {
			t.Errorf("overshot write A[%d] not undone: %v", i, a.Data[i])
		}
	}
}

func TestUndoWithoutCheckpointFails(t *testing.T) {
	m := New(mem.NewArray("A", 4))
	if _, err := m.Undo(0); err == nil {
		t.Fatal("Undo without Checkpoint should fail")
	}
	if err := m.RestoreAll(); err == nil {
		t.Fatal("RestoreAll without Checkpoint should fail")
	}
}

func TestRestoreAllAndCommit(t *testing.T) {
	a := mem.NewArray("A", 4)
	a.Data[1] = 5
	m := New(a)
	m.Checkpoint()
	tr := m.Tracker()
	tr.Store(a, 1, 99, 0, 0)
	tr.Store(a, 2, 98, 1, 0)
	if err := m.RestoreAll(); err != nil {
		t.Fatal(err)
	}
	if a.Data[1] != 5 || a.Data[2] != 0 {
		t.Fatalf("RestoreAll left %v", a.Data)
	}
	m.Commit()
	d, c, s, st := m.Stats()
	if d != 4 || c != 0 || s != 4 || st != 0 {
		t.Fatalf("post-commit stats = %d %d %d %d", d, c, s, st)
	}
}

func TestStampKeepsMinimumIteration(t *testing.T) {
	a := mem.NewArray("A", 2)
	m := New(a)
	m.Checkpoint()
	tr := m.Tracker()
	tr.Store(a, 0, 1, 9, 0)
	tr.Store(a, 0, 2, 3, 1) // earlier iteration writes same location
	tr.Store(a, 0, 3, 7, 2)
	if got := m.Stamp(a, 0); got != 3 {
		t.Fatalf("stamp = %d, want min writer 3", got)
	}
	if m.Stamp(a, 1) != NoStamp {
		t.Fatal("unwritten location should have NoStamp")
	}
	if m.Stamp(mem.NewArray("other", 1), 0) != NoStamp {
		t.Fatal("untracked array should report NoStamp")
	}
}

func TestStampThreshold(t *testing.T) {
	a := mem.NewArray("A", 10)
	m := New(a)
	m.Checkpoint()
	m.SetStampThreshold(5)
	tr := m.Tracker()
	for i := 0; i < 10; i++ {
		tr.Store(a, i, 1, i, 0)
	}
	if m.Stamp(a, 3) != NoStamp {
		t.Fatal("below-threshold store should not be stamped")
	}
	if m.Stamp(a, 7) != 7 {
		t.Fatal("above-threshold store should be stamped")
	}
	// Undo with valid >= threshold works; below threshold must fail.
	if _, err := m.Undo(6); err != nil {
		t.Fatalf("Undo above threshold failed: %v", err)
	}
	if _, err := m.Undo(3); err == nil {
		t.Fatal("Undo below threshold must fail (stamps missing)")
	}
}

func TestStatsTripleMemory(t *testing.T) {
	a, b := mem.NewArray("A", 100), mem.NewArray("B", 50)
	m := New(a, b)
	m.Checkpoint()
	d, c, s, _ := m.Stats()
	if d != 150 || c != 150 || s != 150 {
		t.Fatalf("stats = %d/%d/%d, want the 3x footprint of Section 4", d, c, s)
	}
}

// Property: a speculative parallel execution followed by Undo(valid)
// leaves memory exactly as a sequential execution of the valid prefix.
func TestUndoEquivalentToSequentialPrefix(t *testing.T) {
	f := func(nRaw, validRaw, procsRaw uint8) bool {
		n := int(nRaw)%64 + 8
		valid := int(validRaw) % n
		procs := int(procsRaw)%4 + 1

		par := mem.NewArray("A", n)
		seq := mem.NewArray("A", n)
		for i := 0; i < n; i++ {
			par.Data[i] = float64(-i - 1)
			seq.Data[i] = float64(-i - 1)
		}

		m := NewSharded(procs, par)
		m.Checkpoint()
		tr := m.Tracker()
		// Parallel: all n iterations run speculatively.
		sched.DOALL(n, sched.Options{Procs: procs}, func(i, vpn int) sched.Control {
			tr.Store(par, i, float64(i*i), i, vpn)
			return sched.Continue
		})
		if _, err := m.Undo(valid); err != nil {
			return false
		}
		// Sequential: only valid iterations run.
		for i := 0; i < valid; i++ {
			seq.Data[i] = float64(i * i)
		}
		return par.Equal(seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTrailLastValues(t *testing.T) {
	tr := NewTrail()
	// Location 3 written by iterations 2, 5, 9; location 4 only by 8.
	tr.Record(0, 5, 3, 50)
	tr.Record(1, 2, 3, 20)
	tr.Record(0, 9, 3, 90)
	tr.Record(1, 8, 4, 80)
	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// valid = 6: iterations 0..5 valid.
	vals := tr.LastValues(6)
	if v, ok := vals[3]; !ok || v != 50 {
		t.Fatalf("vals[3] = %v, want 50 (iteration 5's write)", vals[3])
	}
	if _, ok := vals[4]; ok {
		t.Fatal("location 4 written only by overshoot; must be absent")
	}
	// valid = 10: everything counts; last write (iter 9) wins.
	vals = tr.LastValues(10)
	if vals[3] != 90 || vals[4] != 80 {
		t.Fatalf("vals = %v", vals)
	}
	// valid = 0: nothing.
	if len(tr.LastValues(0)) != 0 {
		t.Fatal("no valid iterations should yield no values")
	}
}

func TestTrailConcurrentRecord(t *testing.T) {
	tr := NewTrail()
	sched.DOALL(200, sched.Options{Procs: 8}, func(i, vpn int) sched.Control {
		tr.Record(vpn, i, i%10, float64(i))
		return sched.Continue
	})
	if tr.Len() != 200 {
		t.Fatalf("Len = %d, want 200", tr.Len())
	}
	vals := tr.LastValues(200)
	for idx, v := range vals {
		// Last writer of location idx is the largest i with i%10 == idx.
		want := float64(190 + idx)
		if v != want {
			t.Fatalf("vals[%d] = %v, want %v", idx, v, want)
		}
	}
}

func TestSparseMemoryUndo(t *testing.T) {
	a := mem.NewArray("A", 1000)
	for i := range a.Data {
		a.Data[i] = 7
	}
	s := NewSparse()
	tr := s.Tracker()
	// Sparse writes: every 37th element, iteration = index/37.
	for i := 0; i < 1000; i += 37 {
		tr.Store(a, i, 100, i/37, 0)
	}
	if s.Touched() != 28 {
		t.Fatalf("Touched = %d, want 28", s.Touched())
	}
	restored := s.Undo(10) // iterations 0..9 valid -> indices 0..333 keep writes
	if restored != 28-10 {
		t.Fatalf("restored = %d, want 18", restored)
	}
	if a.Data[0] != 100 || a.Data[37*9] != 100 {
		t.Fatal("valid sparse writes lost")
	}
	if a.Data[37*10] != 7 {
		t.Fatal("overshot sparse write not restored")
	}
}

func TestSparseMemoryKeepsOldestValueAndMinStamp(t *testing.T) {
	a := mem.NewArray("A", 4)
	a.Data[2] = 5
	s := NewSparse()
	tr := s.Tracker()
	tr.Store(a, 2, 10, 8, 0) // first write saves old=5, stamp=8
	tr.Store(a, 2, 20, 3, 1) // earlier iteration lowers the stamp
	if got := tr.Load(a, 2, 0, 0); got != 20 {
		t.Fatalf("Load = %v", got)
	}
	// valid=4 > stamp min 3 -> kept.
	if s.Undo(4) != 0 {
		t.Fatal("write with min stamp 3 should be kept at valid=4")
	}
	s.Reset()
	tr.Store(a, 2, 30, 9, 0)
	if s.RestoreAll() != 1 || a.Data[2] != 20 {
		t.Fatalf("RestoreAll should rewind to pre-loop value, got %v", a.Data[2])
	}
	if s.String() == "" {
		t.Fatal("String should describe the log")
	}
}

func TestSparseMemoryConcurrent(t *testing.T) {
	a := mem.NewArray("A", 512)
	s := NewSparseSharded(8)
	tr := s.Tracker()
	sched.DOALL(512, sched.Options{Procs: 8}, func(i, vpn int) sched.Control {
		tr.Store(a, i, float64(i), i, vpn)
		return sched.Continue
	})
	if s.Touched() != 512 {
		t.Fatalf("Touched = %d", s.Touched())
	}
	if s.Undo(256) != 256 {
		t.Fatal("half the writes should be undone")
	}
}

func TestPartialCommitKeepsPrefixAndRebases(t *testing.T) {
	a := mem.NewArray("A", 16)
	for i := range a.Data {
		a.Data[i] = -1
	}
	m := NewSharded(4, a)
	m.Checkpoint()
	tr := m.Tracker()
	// Iterations 0..11 each write their own element.
	for i := 0; i < 12; i++ {
		tr.Store(a, i, float64(100+i), i, i%4)
	}
	restored, err := m.PartialCommit(8)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 4 {
		t.Fatalf("restored %d, want 4 (iterations 8..11)", restored)
	}
	for i := 0; i < 8; i++ {
		if a.Data[i] != float64(100+i) {
			t.Fatalf("prefix write A[%d] lost: %v", i, a.Data[i])
		}
	}
	for i := 8; i < 16; i++ {
		if a.Data[i] != -1 {
			t.Fatalf("suffix A[%d] not rewound: %v", i, a.Data[i])
		}
	}
	// The commit re-baselined: a new round's stores rewind to the
	// post-prefix state, not the original one.
	for i := 8; i < 12; i++ {
		tr.Store(a, i, float64(200+i), i, i%4)
	}
	if err := m.RestoreAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if a.Data[i] != float64(100+i) {
			t.Fatalf("rebased checkpoint lost prefix at %d: %v", i, a.Data[i])
		}
	}
	for i := 8; i < 16; i++ {
		if a.Data[i] != -1 {
			t.Fatalf("rebased checkpoint wrong at %d: %v", i, a.Data[i])
		}
	}
}

func TestPartialCommitClearsStamps(t *testing.T) {
	a := mem.NewArray("A", 8)
	m := New(a)
	m.Checkpoint()
	tr := m.Tracker()
	tr.Store(a, 1, 1, 1, 0)
	tr.Store(a, 5, 5, 5, 0)
	if _, err := m.PartialCommit(3); err != nil {
		t.Fatal(err)
	}
	if st := m.Stamp(a, 1); st != NoStamp {
		t.Fatalf("stamp below the bound should be cleared by the rebase, got %d", st)
	}
	if st := m.Stamp(a, 5); st != NoStamp {
		t.Fatalf("stamp above the bound should be cleared by the rebase, got %d", st)
	}
	// A new round's undo only sees the new round's stores.
	tr.Store(a, 6, 6, 2, 0)
	n, err := m.Undo(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("new round undo restored %d, want 1", n)
	}
}

func TestPartialCommitErrors(t *testing.T) {
	a := mem.NewArray("A", 4)
	m := New(a)
	if _, err := m.PartialCommit(0); err == nil {
		t.Fatal("PartialCommit without Checkpoint should fail")
	}
	m.Checkpoint()
	m.SetStampThreshold(4)
	if _, err := m.PartialCommit(2); err == nil {
		t.Fatal("PartialCommit below the stamp threshold should fail")
	}
}

func TestCheckpointReusesBuffers(t *testing.T) {
	a := mem.NewArray("A", 64)
	m := New(a)
	m.Checkpoint()
	first := m.checkpoints[0].Data
	a.Data[3] = 42
	m.Checkpoint()
	if &m.checkpoints[0].Data[0] != &first[0] {
		t.Fatal("second Checkpoint should reuse the buffer")
	}
	if m.checkpoints[0].Data[3] != 42 {
		t.Fatal("reused buffer should hold the fresh snapshot")
	}
}
