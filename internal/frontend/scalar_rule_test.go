package frontend

import (
	"context"
	"strings"
	"testing"

	"whilepar/internal/core"
	"whilepar/internal/mem"
)

var allStrategies = []core.Strategy{core.Auto, core.StrategySequential, core.StrategySpeculate,
	core.StrategyRunTwice, core.StrategyRecover, core.StrategyPipeline}

// An array the loop both writes and reads goes to the PD test whatever
// its subscripts look like: a[i+1] = a[i] + 1 carries a flow dependence
// of distance one, and a parallel run must not commit it.
func TestReadAndWrittenArrayIsTested(t *testing.T) {
	const src = `
		while (i < n - 1) {
			a[i+1] = a[i] + 1
			i = i + 1
		}`
	const n = 20000
	build := func() (*Program, *mem.Array) {
		env := NewEnv()
		a := mem.NewArray("a", n)
		env.Arrays["a"] = a
		env.Scalars["n"] = n
		return compileSrc(t, src, env, n), a
	}
	ref, want := build()
	wantValid, err := ref.RunSequential()
	if err != nil {
		t.Fatal(err)
	}
	if an := analyze(t, src); len(an.Unknown) != 1 || an.Unknown[0] != "a" {
		t.Fatalf("Unknown = %v, want [a]", an.Unknown)
	}
	for _, s := range allStrategies {
		p, a := build()
		rep, err := p.RunContext(context.Background(), core.Options{Procs: 4, Strategy: s})
		if s == core.StrategyRunTwice {
			// Run-twice needs statically known dependences: a Tested
			// array is refused up front, before anything runs.
			if err == nil {
				t.Fatalf("%v: ran a loop with a Tested array", s)
			}
			continue
		}
		if err != nil || rep.Valid != wantValid {
			t.Fatalf("%v: valid %d, err %v; sequential %d", s, rep.Valid, err, wantValid)
		}
		for i := range want.Data {
			if a.Data[i] != want.Data[i] {
				t.Fatalf("%v: a[%d] = %v, sequential %v", s, i, a.Data[i], want.Data[i])
			}
		}
	}
}

// A body-assigned scalar that is not a recurrence is iteration-local; a
// read of it before its first assignment in body order — in the header,
// an exit condition, a value or a subscript — is a compile error naming
// it, so no strategy ever runs the loop.
func TestScalarReadBeforeAssignmentIsRejected(t *testing.T) {
	for _, src := range []string{
		"while (i < n) {\n b[i] = x\n x = a[i]\n i = i + 1\n}",
		"while (i < n) {\n if (x > 3) exit\n x = a[i]\n i = i + 1\n}",
		"while (i < n) {\n b[x] = 1\n x = i\n i = i + 1\n}",
		"while (x < n) {\n x = a[i]\n i = i + 1\n}",
	} {
		ast, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		an, err := Analyze(ast)
		if err != nil {
			t.Fatal(err)
		}
		env := AutoEnv(ast, 64)
		env.Scalars["x"] = -1
		if _, err := Compile(ast, an, env, 64); err == nil || !strings.Contains(err.Error(), `"x"`) {
			t.Fatalf("%s compiled (err %v); want an error naming x", src, err)
		}
	}
	// Assigned first, then read: legal.
	const legal = "while (i < n) {\n x = a[i]\n b[i] = x\n i = i + 1\n}"
	ast, err := Parse(legal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(ast, analyze(t, legal), AutoEnv(ast, 64), 64); err != nil {
		t.Fatalf("%s: %v", legal, err)
	}
}

// The doubt rule adds only arrays that are both read and written: a
// write-only array stays untested, and an array already sent to the PD
// test by a subscripted subscript is the only one the TRACK shape has.
func TestDoubtRuleKeepsUntestedArrays(t *testing.T) {
	for src, want := range map[string]string{
		"while (i < n) {\n b[i] = 2*a[i] + 1\n i = i + 1\n}": "",
		"while (i < n) {\n err = residual(obs[i], pred[i])\n if (err > limit) exit\n" +
			" state[idx[i]] = smooth(state[idx[i]], obs[i])\n i = i + 1\n}": "state",
	} {
		if got := strings.Join(analyze(t, src).Unknown, ","); got != want {
			t.Fatalf("%s: Unknown = [%s], want [%s]", src, got, want)
		}
	}
}
