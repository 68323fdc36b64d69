package matching
