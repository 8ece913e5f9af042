package dbm

// BlockShape is a translated block as the partition property sees it.
type BlockShape struct {
	// Len is the number of instructions and End the fall-through
	// address after them.
	Len int
	End uint64
	// Sites are the indices of the block's sites, in list order.
	Sites []int
}

// ShapeAt translates the block starting at addr for thread tid's cache,
// without caching it or keeping it in a record.
func (ex *Executor) ShapeAt(tid int, addr uint64) (BlockShape, error) {
	b, err := ex.translate(&threadRec{}, tid, addr)
	if err != nil {
		return BlockShape{}, err
	}
	sh := BlockShape{Len: len(b.insts), End: b.end}
	for _, s := range b.sites {
		sh.Sites = append(sh.Sites, s.idx)
	}
	return sh, nil
}
