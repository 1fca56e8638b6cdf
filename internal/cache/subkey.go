package cache

import "strconv"

// SubKey derives a fine-grained child key from a coarse stage key. Stage
// keys chain whole artifacts (place -> route -> bitgen); sub-stage keys
// subdivide one artifact by component — the incremental flow keys each CLB
// column's frame payload under a key of the routed design that produced it,
// so a warm edit storm hits per column rather than per design. The
// domain names the sub-stage ("flow.col/v1" etc.) and fields are hashed in
// order with positional labels.
func SubKey(parent Key, domain string, fields ...string) Key {
	h := NewHasher(domain)
	h.Key("parent", parent)
	for i, f := range fields {
		h.Str("f"+strconv.Itoa(i), f)
	}
	return h.Sum()
}
