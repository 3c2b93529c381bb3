"""Point-cloud semantic segmentation from MLPs and dense 2D convolutions."""
