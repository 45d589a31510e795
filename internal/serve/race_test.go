//go:build race

package serve

// raceEnabled lets alloc-count gates skip under -race: the race runtime
// allocates for its own bookkeeping, and its sync.Pool drops a quarter of
// Puts on purpose, so AllocsPerRun readings are not the production numbers
// there.
const raceEnabled = true
