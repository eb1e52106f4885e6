package frontend

import (
	"context"
	"strings"
	"testing"

	"whilepar/internal/core"
	"whilepar/internal/mem"
)

func compileSrc(t *testing.T, src string, env *Env, max int) *Program {
	t.Helper()
	ast, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(ast)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(ast, an, env, max)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestInterpretedLoopRunsParallel(t *testing.T) {
	// do i=0..; if a[i] < 0 exit; b[i] = 2*a[i] + 1
	n := 500
	env := NewEnv()
	a := mem.NewArray("a", n)
	b := mem.NewArray("b", n)
	for i := 0; i < n; i++ {
		a.Data[i] = float64(i)
	}
	a.Data[321] = -5
	env.Arrays["a"] = a
	env.Arrays["b"] = b
	env.Scalars["n"] = float64(n)

	p := compileSrc(t, `
		while (i < n) {
			if (a[i] < 0) exit
			b[i] = 2*a[i] + 1
			i = i + 1
		}`, env, n)

	rep, err := p.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != 321 {
		t.Fatalf("valid = %d (%+v)", rep.Valid, rep)
	}
	for i := 0; i < n; i++ {
		want := 0.0
		if i < 321 {
			want = 2*float64(i) + 1
		}
		if b.Data[i] != want {
			t.Fatalf("b[%d] = %v, want %v", i, b.Data[i], want)
		}
	}
}

func TestInterpretedMatchesSequential(t *testing.T) {
	n := 300
	build := func() (*Env, *mem.Array) {
		env := NewEnv()
		src := mem.NewArray("src", n)
		dst := mem.NewArray("dst", n)
		idx := mem.NewArray("idx", n)
		for i := 0; i < n; i++ {
			src.Data[i] = float64(i % 17)
			idx.Data[i] = float64((i*7 + 3) % n) // permutation
		}
		env.Arrays["src"], env.Arrays["dst"], env.Arrays["idx"] = src, dst, idx
		env.Scalars["n"] = float64(n)
		return env, dst
	}
	// Subscripted subscripts: dst[idx[i]] = sqrt(src[i]) -- the analysis
	// flags dst for the PD test; the permutation makes it pass.
	src := `
		while (i < n) {
			dst[idx[i]] = sqrt(src[i])
			i = i + 1
		}`

	envSeq, dstSeq := build()
	pSeq := compileSrc(t, src, envSeq, n)
	validSeq, err := pSeq.RunSequential()
	if err != nil {
		t.Fatal(err)
	}

	envPar, dstPar := build()
	pPar := compileSrc(t, src, envPar, n)
	if len(pPar.an.Unknown) != 1 || pPar.an.Unknown[0] != "dst" {
		t.Fatalf("analysis should flag dst: %v", pPar.an.Unknown)
	}
	rep, err := pPar.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != validSeq || !rep.UsedParallel {
		t.Fatalf("rep %+v, sequential valid %d", rep, validSeq)
	}
	if !dstPar.Equal(dstSeq) {
		t.Fatal("interpreted parallel state diverged from sequential")
	}
}

func TestInterpretedDependentLoopFallsBack(t *testing.T) {
	// acc[0] = acc[0] + a[i]: a genuine cross-iteration dependence; the
	// PD test must catch it and the sequential re-execution must produce
	// the correct sum.
	n := 64
	env := NewEnv()
	a := mem.NewArray("a", n)
	acc := mem.NewArray("acc", 1)
	sum := 0.0
	for i := 0; i < n; i++ {
		a.Data[i] = float64(i + 1)
		sum += float64(i + 1)
	}
	env.Arrays["a"], env.Arrays["acc"] = a, acc
	env.Scalars["n"] = float64(n)

	p := compileSrc(t, `
		while (i < n) {
			acc[0] = acc[0] + a[i]
			i = i + 1
		}`, env, n)
	// acc[0] uses a constant subscript, not a nested one, so the
	// analysis does not flag it Unknown; mark it tested by hand, the way
	// a conservative compiler would.  The PD test must then catch the
	// dependence, and the re-execution must leave the sequential sum.
	if _, err := p.RunContext(context.Background(), core.Options{Procs: 4, Strategy: core.StrategySpeculate, Tested: []*mem.Array{acc}}); err != nil {
		t.Fatal(err)
	}
	if acc.Data[0] != sum {
		t.Fatalf("4-proc sum = %v, want %v", acc.Data[0], sum)
	}
	// And the single-processor run, which is the sequential order.
	env2 := NewEnv()
	a2 := mem.NewArray("a", n)
	copy(a2.Data, a.Data)
	acc2 := mem.NewArray("acc", 1)
	env2.Arrays["a"], env2.Arrays["acc"] = a2, acc2
	env2.Scalars["n"] = float64(n)
	p2 := compileSrc(t, `
		while (i < n) {
			acc[0] = acc[0] + a[i]
			i = i + 1
		}`, env2, n)
	if _, err := p2.Run(1); err != nil {
		t.Fatal(err)
	}
	if acc2.Data[0] != sum {
		t.Fatalf("1-proc sum = %v, want %v", acc2.Data[0], sum)
	}
}

func TestCompileRejectsNonRunnable(t *testing.T) {
	env := NewEnv()
	cases := []string{
		`while (x < 10) { x = 0.5*x + 1 }`, // associative recurrence
		`while (p != nil) { p = next(p) }`, // general recurrence
		`while (i < 9) { i = i + 1
		                 j = j + 2 }`, // two inductions
	}
	for _, src := range cases {
		ast, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		an, err := Analyze(ast)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(ast, an, env, 10); err == nil {
			t.Errorf("compile accepted %q", src)
		}
	}
	// maxIter validation.
	ast, _ := Parse(`while (i < 3) { i = i + 1 }`)
	an, _ := Analyze(ast)
	if _, err := Compile(ast, an, env, 0); err == nil {
		t.Error("maxIter=0 accepted")
	}
}

func TestInterpreterErrors(t *testing.T) {
	env := NewEnv()
	env.Scalars["n"] = 10
	cases := map[string]string{
		"unbound variable": `while (i < n) { y[i] = q  i = i + 1 }`,
		"unbound array":    `while (i < n) { y[i] = 1  i = i + 1 }`,
		"unbound function": `while (i < n) { y[i] = mystery(i)  i = i + 1 }`,
	}
	for what, src := range cases {
		p := compileSrc(t, src, env, 10)
		if _, err := p.RunSequential(); err == nil {
			t.Errorf("%s: no error", what)
		}
	}
	// Out-of-range index.
	env2 := NewEnv()
	env2.Scalars["n"] = 10
	env2.Arrays["y"] = mem.NewArray("y", 2)
	p := compileSrc(t, `while (i < n) { y[i] = 1  i = i + 1 }`, env2, 10)
	if _, err := p.RunSequential(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("expected range error, got %v", err)
	}
	// The parallel path surfaces interpretation errors too.
	if _, err := p.Run(3); err == nil {
		t.Error("parallel run swallowed the error")
	}
}

func TestInterpreterBuiltinsAndOps(t *testing.T) {
	env := NewEnv()
	env.Scalars["n"] = 1
	y := mem.NewArray("y", 8)
	env.Arrays["y"] = y
	p := compileSrc(t, `
		while (i < n) {
			y[0] = abs(0 - 3)
			y[1] = min(2, 5) + max(2, 5)
			y[2] = 7/2
			y[3] = (1 < 2) + (2 <= 2) + (3 > 4) + (4 >= 5) + (1 == 1) + (1 != 1)
			y[4] = (1 && 0) + (1 || 0)
			y[5] = sqrt(49)
			i = i + 1
		}`, env, 1)
	if _, err := p.RunSequential(); err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 7, 3.5, 3, 1, 7}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("y[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
}

func TestInductionStartFromEnv(t *testing.T) {
	// i starts at 5 (from the env) with step 2: values 5,7,9.
	env := NewEnv()
	env.Scalars["i"] = 5
	env.Scalars["n"] = 11
	y := mem.NewArray("y", 16)
	env.Arrays["y"] = y
	p := compileSrc(t, `
		while (i < n) {
			y[i] = i
			i = i + 2
		}`, env, 16)
	valid, err := p.RunSequential()
	if err != nil {
		t.Fatal(err)
	}
	if valid != 3 {
		t.Fatalf("valid = %d", valid)
	}
	for _, i := range []int{5, 7, 9} {
		if y.Data[i] != float64(i) {
			t.Fatalf("y[%d] = %v", i, y.Data[i])
		}
	}
}

func TestAutoEnvBindsEverything(t *testing.T) {
	ast, err := Parse(`
		while (i < n) {
			v = weight(a[i], b[idx[i]])
			if (v > cap) exit
			out[i] = v + bias
			i = i + 1
		}`)
	if err != nil {
		t.Fatal(err)
	}
	env := AutoEnv(ast, 64)
	for _, arr := range []string{"a", "b", "idx", "out"} {
		if env.Arrays[arr] == nil || env.Arrays[arr].Len() != 64 {
			t.Fatalf("array %q not auto-bound", arr)
		}
	}
	for _, sc := range []string{"n", "cap", "bias"} {
		if _, ok := env.Scalars[sc]; !ok {
			t.Fatalf("scalar %q not auto-bound", sc)
		}
	}
	if env.Funcs["weight"] == nil {
		t.Fatal("function not auto-bound")
	}
	// Stand-in functions are deterministic and pure.
	f := env.Funcs["weight"]
	if f([]float64{1, 2}) != f([]float64{1, 2}) {
		t.Fatal("stand-in function not deterministic")
	}
	// Locals (v) must not be bound as env scalars.
	if _, ok := env.Scalars["v"]; ok {
		t.Fatal("iteration-local bound as env scalar")
	}
	// And the program must compile and run sequentially without error.
	an, err := Analyze(ast)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(ast, an, env, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunSequential(); err != nil {
		t.Fatal(err)
	}
}
