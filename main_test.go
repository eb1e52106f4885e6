package whilepar

import (
	"os"
	"testing"

	"whilepar/internal/autotune"
)

// TestMain takes the wall clock out of Auto's engine selection for this
// package's tests: they were written against particular engines and
// must reach them on any host.  The tests of the cost-model planner
// inject priced tables of their own (ProfileStore.SetTable).
func TestMain(m *testing.M) {
	autotune.SetHostTable(&autotune.Table{Off: true})
	os.Exit(m.Run())
}
