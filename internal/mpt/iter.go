package mpt

import (
	"fmt"

	"forkbase/internal/index"
)

// Nibble-path lexicographic order equals key-byte lexicographic order (each
// byte expands to its high nibble then its low nibble), and a key ending at
// a branch sorts before every key continuing through it — so a depth-first
// walk that emits a branch's value before its children yields entries in
// exactly the key order pos.Tree.Iter produces.

// Iter walks a trie in key order.
type Iter struct {
	t      *Trie
	stack  []iterFrame
	prefix []byte // nibbles of the current position
	cur    index.Entry
	err    error
	done   bool
}

type iterFrame struct {
	n       *node
	plen    int // prefix length to restore when this frame pops
	slot    int // branch: next child slot; -1 = value not yet emitted
	visited bool
}

// push enters a node, appending its compressed path to the prefix.
func (it *Iter) push(n *node, plen int) {
	it.stack = append(it.stack, iterFrame{n: n, plen: plen, slot: -1})
	if n.kind != kindBranch {
		it.prefix = append(it.prefix, n.path...)
	}
}

func (it *Iter) pop() {
	top := it.stack[len(it.stack)-1]
	it.prefix = it.prefix[:top.plen]
	it.stack = it.stack[:len(it.stack)-1]
}

// Next advances to the next entry; it returns false at the end or on error.
func (it *Iter) Next() bool {
	if it.done || it.err != nil {
		return false
	}
	for len(it.stack) > 0 {
		top := &it.stack[len(it.stack)-1]
		switch top.n.kind {
		case kindLeaf:
			if top.visited {
				it.pop()
				continue
			}
			top.visited = true
			it.cur = index.Entry{Key: nibblesToKey(it.prefix), Val: top.n.val}
			return true
		case kindExt:
			if top.visited {
				it.pop()
				continue
			}
			top.visited = true
			child, err := it.t.src.Load(top.n.childID)
			if err != nil {
				it.err = fmt.Errorf("mpt: iter: %w", err)
				return false
			}
			it.push(child, len(it.prefix))
			continue
		default: // branch
			if top.slot == -1 {
				top.slot = 0
				if top.n.hasVal {
					it.cur = index.Entry{Key: nibblesToKey(it.prefix), Val: top.n.val}
					return true
				}
			}
			for top.slot < 16 && top.n.childMask&(1<<top.slot) == 0 {
				top.slot++
			}
			if top.slot >= 16 {
				it.pop()
				continue
			}
			i := top.slot
			top.slot++
			child, err := it.t.src.Load(top.n.childIDs[i])
			if err != nil {
				it.err = fmt.Errorf("mpt: iter: %w", err)
				return false
			}
			restore := len(it.prefix)
			it.prefix = append(it.prefix, byte(i))
			it.push(child, restore)
			continue
		}
	}
	it.done = true
	return false
}

// Entry returns the current entry.  Valid only after a true Next.  The
// value aliases decoded chunk data; copy before holding long-term.
func (it *Iter) Entry() index.Entry { return it.cur }

// Err returns the first error encountered during iteration.
func (it *Iter) Err() error { return it.err }

// Iterate returns an iterator positioned before the first entry.
func (t *Trie) Iterate() (index.Iterator, error) {
	it := &Iter{t: t}
	if t.root.IsZero() {
		it.done = true
		return it, nil
	}
	n, err := t.src.Load(t.root)
	if err != nil {
		return nil, fmt.Errorf("mpt: iter: %w", err)
	}
	it.push(n, 0)
	return it, nil
}

// nibCompare lexicographically compares two nibble paths.
func nibCompare(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// IterateFrom returns an iterator positioned before the first entry whose
// key is >= key, descending only the nodes on the seek path.
func (t *Trie) IterateFrom(key []byte) (index.Iterator, error) {
	it := &Iter{t: t}
	if t.root.IsZero() {
		it.done = true
		return it, nil
	}
	n, err := t.src.Load(t.root)
	if err != nil {
		return nil, fmt.Errorf("mpt: iter: %w", err)
	}
	if err := it.seek(n, keyNibbles(key)); err != nil {
		return nil, err
	}
	return it, nil
}

// seek positions the iterator stack so that iteration resumes at the first
// key >= the remaining target path rem, relative to the current prefix.
func (it *Iter) seek(n *node, rem []byte) error {
	switch n.kind {
	case kindLeaf:
		if nibCompare(n.path, rem) >= 0 {
			it.push(n, len(it.prefix))
		}
		return nil
	case kindExt:
		cp := commonPrefix(n.path, rem)
		switch {
		case cp == len(rem):
			// The target is a prefix of (or equal to) the node path: every
			// key under this subtree is >= the target.
			it.push(n, len(it.prefix))
			return nil
		case cp == len(n.path):
			// The target continues past the compressed path: descend.
			plen := len(it.prefix)
			it.stack = append(it.stack, iterFrame{n: n, plen: plen, visited: true})
			it.prefix = append(it.prefix, n.path...)
			child, err := it.t.src.Load(n.childID)
			if err != nil {
				return fmt.Errorf("mpt: iter: %w", err)
			}
			return it.seek(child, rem[cp:])
		case n.path[cp] > rem[cp]:
			it.push(n, len(it.prefix)) // whole subtree sorts after the target
			return nil
		default:
			return nil // whole subtree sorts before the target: skip
		}
	default: // branch
		if len(rem) == 0 {
			it.push(n, len(it.prefix))
			return nil
		}
		i := rem[0]
		// The branch value (key == prefix) and children below nibble i all
		// sort before the target; resume at slot i+1 once the descended
		// child subtree is exhausted.
		it.stack = append(it.stack, iterFrame{n: n, plen: len(it.prefix), slot: int(i) + 1})
		if n.childMask&(1<<i) == 0 {
			return nil
		}
		it.prefix = append(it.prefix, i)
		child, err := it.t.src.Load(n.childIDs[i])
		if err != nil {
			return fmt.Errorf("mpt: iter: %w", err)
		}
		// The child's frame restores the prefix to before the routing
		// nibble.
		if err := it.seekChild(child, rem[1:]); err != nil {
			return err
		}
		return nil
	}
}

// seekChild seeks into a branch child whose routing nibble was already
// appended to the prefix: frames pushed for this subtree must restore the
// prefix to before that nibble.
func (it *Iter) seekChild(n *node, rem []byte) error {
	// Delegate to seek, then fix up the restore point of the frame that
	// roots this subtree (if any was pushed): it must also drop the routing
	// nibble the parent appended.
	depth := len(it.stack)
	if err := it.seek(n, rem); err != nil {
		return err
	}
	if len(it.stack) > depth {
		it.stack[depth].plen--
	} else {
		// Nothing under the child qualified: drop the routing nibble now.
		it.prefix = it.prefix[:len(it.prefix)-1]
	}
	return nil
}

var _ index.Iterator = (*Iter)(nil)
