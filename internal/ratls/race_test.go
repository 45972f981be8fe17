//go:build race

package ratls

func init() { raceEnabled = true }
