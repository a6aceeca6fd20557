package hashtable

// Steps exposes the linear-probing step counter to the external tests.
func (t *Table) Steps() int64 { return t.steps }
