//go:build !race

package probe

const raceEnabled = false
