package coloring
