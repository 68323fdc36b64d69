package graph

func FilterColumns() {}

func packCSR() {} // want
