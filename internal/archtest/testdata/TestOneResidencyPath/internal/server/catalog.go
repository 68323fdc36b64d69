package server

const ResidencyCold = "cold" // want
