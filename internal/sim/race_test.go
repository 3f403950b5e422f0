//go:build race

package sim_test

func init() { raceEnabled = true }
