package forensics

// The exported names below give the external tests (package
// forensics_test) the internals they check. Those tests build captures
// through core, which imports this package, so they cannot be in it.

// RaceEnabled reports a -race build.
const RaceEnabled = raceEnabled

// Decodes reports whether the in-place decoder keeps raw as one of the
// messages the reducer consumes.
func Decodes(raw []byte) bool {
	var m hciMsg
	return m.decode(raw)
}

// DistinctLive counts the sessions a future record can still reach
// through d's handle and peer tables.
func DistinctLive(d *Detector) int {
	set := make(map[*Session]bool)
	for _, slot := range d.st.handles {
		if slot.session != nil {
			set[slot.session] = true
		}
	}
	for _, p := range d.st.peers {
		if p.session != nil {
			set[p.session] = true
		}
	}
	return len(set)
}
