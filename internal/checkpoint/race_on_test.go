//go:build race

package checkpoint

// raceEnabled: allocation gates count heap objects, and under the race
// detector sync.Pool drops a quarter of its Puts by design.
const raceEnabled = true
