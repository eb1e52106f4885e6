//go:build !race

package whilepar

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
