"""Desk-scale two-stage detector: anchor RPN + mini Fast R-CNN head."""
