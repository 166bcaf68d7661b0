//go:build !race

package socialscope

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
