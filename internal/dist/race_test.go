//go:build race

package dist

// raceEnabled reports a -race build, under which allocation counts are
// not the program's: the allocation tests skip.
const raceEnabled = true
