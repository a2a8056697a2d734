"""Sparse multi-scan fusion and teacher/student distillation for LiDAR segmentation.

The toolkit covers the full training-side pipeline at desk scale: bit-exact
SemanticKITTI I/O, SE(3) pose algebra, instance-ID generation for classes
annotated without instances, registration-based fusion of hard-class
instances from past scans, the three distillation losses with analytic
gradients, a tiny teacher/student network, and mIoU evaluation.
"""

__version__ = "0.1.0"
