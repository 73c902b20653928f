//go:build race

package parser

func init() { raceEnabled = true }
