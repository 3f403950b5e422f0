//go:build race

package tcpnet

func init() { raceEnabled = true }
