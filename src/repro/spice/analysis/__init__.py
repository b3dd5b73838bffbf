"""Circuit analyses: operating point, AC, transient."""
