//go:build race

package logres

func init() { raceEnabled = true }
