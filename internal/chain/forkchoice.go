package chain

// LongestTips returns the resident block(s) of maximum height, in creation
// order. With a single element the fork choice is unambiguous; with several,
// the caller applies its tie-breaking rule (the paper's gamma parameter).
// On a compacted tree the scan covers [Base(), Len()), which always contains
// every leaf (evicted prefixes are decided history below all tips).
func (t *Tree) LongestTips() []BlockID {
	best := -1
	var tips []BlockID
	for i := range t.recs {
		if t.links[i].firstChild == noBlock32 {
			h := int(t.recs[i].height)
			switch {
			case h > best:
				best = h
				tips = tips[:0]
				tips = append(tips, BlockID(t.base+int32(i)))
			case h == best:
				tips = append(tips, BlockID(t.base+int32(i)))
			}
		}
	}
	return tips
}
