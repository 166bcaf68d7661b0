//go:build race

package socialscope

// raceEnabled reports a -race build. Its sync.Pool drops a random quarter
// of the items put back, so pooled scratch is reallocated at random.
const raceEnabled = true
