package audit

// Segment naming shorthands for the tests that inspect journal files.

func segName(i int) string { return format.Name(i) }

func listSegments(dir string) ([]int, error) { return format.List(dir) }
