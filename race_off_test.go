//go:build !race

package conprobe_test

const raceEnabled = false
