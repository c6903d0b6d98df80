package rtl

import (
	"fmt"

	"repro/internal/bdd"
)

// RestoreBase rebuilds a template base from an already-deduplicated
// template list in its original Add order (a decoded retarget artifact).
// It reproduces the byKey disambiguation Add applied when the base was
// first built — duplicate transfer keys (templates kept apart because of
// distinct dynamic guards) are suffixed with the template id, which equals
// the nextID Add used at insertion time — so a restored base accepts
// further Add calls exactly like the original.
func RestoreBase(m *bdd.Manager, templates []*Template) (*Base, error) {
	b := NewBase(m)
	for i, t := range templates {
		if t == nil {
			return nil, fmt.Errorf("rtl: restore: nil template at position %d", i)
		}
		if t.Src == nil {
			return nil, fmt.Errorf("rtl: restore: template %d has no source pattern", t.ID)
		}
		key := t.appendKey(nil)
		if _, ok := b.byKey[string(key)]; ok {
			key = appendDupID(key, t.ID)
			if _, ok := b.byKey[string(key)]; ok {
				return nil, fmt.Errorf("rtl: restore: duplicate template key %q", key)
			}
		}
		b.byKey[string(key)] = t
		b.Templates = append(b.Templates, t)
		if t.ID >= b.nextID {
			b.nextID = t.ID + 1
		}
	}
	return b, nil
}
