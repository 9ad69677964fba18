struct Hash {
  void BucketAndSign(unsigned key, unsigned* bucket, float* sign) const;
};
float FusedSingleKeyRead(const Hash& h, unsigned key, const float* table) {
  unsigned bucket;
  float sign;
  h.BucketAndSign(key, &bucket, &sign);  // one site left of the two audited
  return sign * table[bucket];
}
