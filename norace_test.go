//go:build !race

package partmb_test

const raceEnabled = false
