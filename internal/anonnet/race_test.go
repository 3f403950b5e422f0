//go:build race

package anonnet

func init() { raceEnabled = true }
