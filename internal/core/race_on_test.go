//go:build race

package core

// raceEnabled reports whether the race detector is active; sync.Pool
// deliberately drops items under the detector, so allocation-count
// assertions are meaningless there.
const raceEnabled = true
