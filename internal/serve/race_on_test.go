//go:build race

package serve

// raceEnabled reports that the race detector is instrumenting this build
// (sync.Pool caching is disabled and every allocation is wrapped, so the
// allocation-free contracts cannot be asserted).
const raceEnabled = true
