//go:build !race

package wire

func raceReleaseIO() {}
func raceAcquireIO() {}
