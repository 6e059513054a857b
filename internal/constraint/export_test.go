package constraint

// InsertCanon is insert, for the external property test (insert_test.go).
func InsertCanon(j Conjunction, c Constraint) Conjunction { return j.insert(c) }

// BoxOrder is boxOrder, for the external order test (box_test.go).
func BoxOrder(a, b Constraint) int { return boxOrder(a, b) }
