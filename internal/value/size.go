package value

// Size estimates the in-memory footprint of a value in bytes. The dataflow
// engine uses it to meter shuffle volume and per-partition memory pressure,
// playing the role of Spark's Tungsten size accounting in the paper's
// experiments. The estimate is deterministic and cheap; constants approximate
// a compact binary row format rather than Go's boxed representation.
func Size(v Value) int64 {
	switch x := v.(type) {
	case nil:
		return 1
	case bool:
		return 1
	case int64, float64, Date:
		return 8
	case string:
		return int64(len(x)) + 4
	case Label:
		return 6 + Size(x.Payload)
	case Tuple:
		var s int64 = 4
		for _, e := range x {
			s += Size(e)
		}
		return s
	case Bag:
		var s int64 = 4
		for _, e := range x {
			s += Size(e)
		}
		return s
	case *RealSum:
		return x.Size()
	default:
		panic("value: unsupported type in Size")
	}
}

// SizeRows sums Size over a slice of rows.
func SizeRows(rows []Tuple) int64 {
	var s int64
	for _, r := range rows {
		s += Size(r)
	}
	return s
}
