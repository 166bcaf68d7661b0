package persist

// Numbering gives integer keys the numbers 0, 1, 2, ... in the order they
// are first added: a linear-probing table of positions in that order,
// indexed by Fibonacci hashing. Reset sizes the table to a power of two at
// least twice the adds it announces, and Add doubles it whenever the keys
// fill half of it, so its memory follows the number of keys and never
// their values (node ids are client-chosen, and none may size an
// allocation). A Numbering is reused across Resets, one goroutine at a
// time; Reset it before the first Add.
type Numbering[K Integer] struct {
	keys  []K
	table []int32 // 1 + the number of the key in each slot; 0 is empty
	shift uint    // 64 − log2(len(table)): the top bits index the table
}

// Reset forgets every key and sizes the table, and the key list, for
// adds keys.
func (n *Numbering[K]) Reset(adds int) {
	size, log2 := 1, uint(0)
	for size < 2*adds {
		size <<= 1
		log2++
	}
	n.shift = 64 - log2
	if cap(n.table) < size {
		n.table = make([]int32, size)
	}
	n.table = n.table[:size]
	clear(n.table)
	if cap(n.keys) < adds {
		n.keys = make([]K, 0, adds)
	}
	n.keys = n.keys[:0]
}

// Add returns k's number, giving k the next one when it has none.
func (n *Numbering[K]) Add(k K) int {
	table, mask := n.table, len(n.table)-1
	i := n.slot(k)
	for at := table[i]; at != 0; at = table[i] {
		if n.keys[at-1] == k {
			return int(at - 1)
		}
		i = (i + 1) & mask
	}
	n.keys = append(n.keys, k)
	table[i] = int32(len(n.keys))
	if 2*len(n.keys) > len(table) {
		n.grow()
	}
	return len(n.keys) - 1
}

// Keys returns the keys added since the last Reset, each at its number.
// The slice aliases n until the next Reset or Add.
func (n *Numbering[K]) Keys() []K { return n.keys }

// slot is k's home slot: the multiply spreads consecutive keys, and its
// top bits index the table.
func (n *Numbering[K]) slot(k K) int {
	return int(uint64(k) * 0x9E3779B97F4A7C15 >> n.shift)
}

// grow doubles the table and places every key again.
func (n *Numbering[K]) grow() {
	n.table, n.shift = make([]int32, 2*len(n.table)), n.shift-1
	for at, k := range n.keys {
		i := n.slot(k)
		for n.table[i] != 0 {
			i = (i + 1) & (len(n.table) - 1)
		}
		n.table[i] = int32(at + 1)
	}
}
