"""Pure-Python greedy-IoU recall: the reference the numpy matcher must equal.

This is the body ``tilecast.metrics.recall`` had before it matched over a
precomputed IoU matrix: for each detection in order (descending
confidence, human boxes first on ties, then index) a scan of every
ground-truth box for the unmatched one of highest IoU strictly above
the threshold, first on ties.
"""

from tilecast.metrics import iou


def reference_recall(anns, gt, iou_threshold=0.1):
    if not gt:
        return 1.0
    boxes = anns.boxes
    order = sorted(
        range(len(boxes)),
        key=lambda i: (-boxes[i].confidence, 0 if boxes[i].source == "HUM" else 1, i),
    )
    matched = [False] * len(gt)
    tp = 0
    for i in order:
        best_j = -1
        best_iou = iou_threshold
        for j, g in enumerate(gt):
            if matched[j]:
                continue
            v = iou(boxes[i], g)
            if v > best_iou:
                best_iou = v
                best_j = j
        if best_j >= 0:
            matched[best_j] = True
            tp += 1
    return tp / len(gt)
